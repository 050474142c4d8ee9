/**
 * @file
 * Unit and statistical tests for the RNG and distributions.
 */

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "sim/random.hh"

using namespace ddp::sim;

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextU32(), b.nextU32());
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.nextU32() == b.nextU32())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Pcg32, BoundedStaysInRange)
{
    Pcg32 rng(1, 1);
    for (int i = 0; i < 10000; ++i) {
        std::uint32_t v = rng.nextBounded(17);
        ASSERT_LT(v, 17u);
    }
}

TEST(Pcg32, BoundedCoversAllValues)
{
    Pcg32 rng(3, 3);
    std::map<std::uint32_t, int> seen;
    for (int i = 0; i < 5000; ++i)
        seen[rng.nextBounded(8)]++;
    EXPECT_EQ(seen.size(), 8u);
    for (const auto &[v, n] : seen)
        EXPECT_GT(n, 5000 / 8 / 3) << "value " << v << " undersampled";
}

TEST(Pcg32, DoubleInUnitInterval)
{
    Pcg32 rng(9, 9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Zipfian, StaysInRange)
{
    Pcg32 rng(5, 5);
    ZipfianGenerator zipf(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(zipf.next(rng), 1000u);
}

TEST(Zipfian, ItemZeroIsMostPopular)
{
    Pcg32 rng(5, 6);
    ZipfianGenerator zipf(10000, 0.99);
    std::map<std::uint64_t, int> hist;
    for (int i = 0; i < 100000; ++i)
        hist[zipf.next(rng)]++;
    // Item 0 must dominate any mid-range item by a wide margin.
    EXPECT_GT(hist[0], hist[50] * 5);
    EXPECT_GT(hist[0], 5000); // >5% of draws at theta 0.99
}

TEST(Zipfian, SkewParameterMatters)
{
    Pcg32 r1(5, 7), r2(5, 7);
    ZipfianGenerator strong(10000, 0.99), weak(10000, 0.5);
    int hot_strong = 0, hot_weak = 0;
    for (int i = 0; i < 50000; ++i) {
        if (strong.next(r1) == 0)
            ++hot_strong;
        if (weak.next(r2) == 0)
            ++hot_weak;
    }
    EXPECT_GT(hot_strong, hot_weak * 4);
}

TEST(Zipfian, SingleItemAlwaysZero)
{
    Pcg32 rng(1, 2);
    ZipfianGenerator zipf(1, 0.99);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(zipf.next(rng), 0u);
}

TEST(Zipfian, DeterministicGivenRngState)
{
    Pcg32 a(11, 4), b(11, 4);
    ZipfianGenerator zipf(5000, 0.9);
    for (int i = 0; i < 500; ++i)
        ASSERT_EQ(zipf.next(a), zipf.next(b));
}

// --- theta >= 1.0 (harmonic / super-skewed paths) --------------------------
// YCSB's standard formula divides by (1 - theta); theta == 1.0 needs the
// harmonic closed form and theta > 1.0 a negative alpha. All three paths
// must stay in range and order by skew.

TEST(Zipfian, ThetaSweepStaysInRange)
{
    for (double theta : {0.99, 1.0, 1.2}) {
        Pcg32 rng(17, 3);
        ZipfianGenerator zipf(1000, theta);
        for (int i = 0; i < 20000; ++i)
            ASSERT_LT(zipf.next(rng), 1000u) << "theta " << theta;
    }
}

TEST(Zipfian, ThetaOneIsFiniteAndSkewed)
{
    Pcg32 rng(17, 4);
    ZipfianGenerator zipf(10000, 1.0);
    std::map<std::uint64_t, int> hist;
    for (int i = 0; i < 100000; ++i)
        hist[zipf.next(rng)]++;
    EXPECT_GT(hist[0], hist[50] * 5);
    EXPECT_GT(hist[0], 5000);
}

TEST(Zipfian, HigherThetaIsMoreSkewed)
{
    Pcg32 r1(17, 5), r2(17, 5), r3(17, 5);
    ZipfianGenerator z99(10000, 0.99), z100(10000, 1.0),
        z120(10000, 1.2);
    int hot99 = 0, hot100 = 0, hot120 = 0;
    for (int i = 0; i < 50000; ++i) {
        hot99 += z99.next(r1) == 0;
        hot100 += z100.next(r2) == 0;
        hot120 += z120.next(r3) == 0;
    }
    EXPECT_GT(hot100, hot99);
    EXPECT_GT(hot120, hot100);
}

TEST(Zipfian, SingleItemThetaOneEdge)
{
    // n == 1 with theta == 1.0 once divided 0/0 computing eta; the
    // sole-item branch must win over the harmonic branch.
    Pcg32 rng(17, 6);
    ZipfianGenerator zipf(1, 1.0);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(zipf.next(rng), 0u);
}

// --- Pinned streams and the per-thread zeta memo -----------------------------
// Every generator over the same (n, theta) reuses one zeta(n, theta) per
// thread. These tests pin the exact samples the sequential sum yields and
// check the memo never mixes up two (n, theta) keys or two threads.

namespace {

struct ZipfCase
{
    std::uint64_t n;
    double theta;
};

const ZipfCase kZipfCases[] = {
    {100000, 0.99}, {1000, 0.5}, {10000, 1.0}, {1, 0.99}, {2, 0.99},
};

/** The first @p count samples of (n, theta) under Pcg32(42, 7). */
std::vector<std::uint64_t>
zipfStream(const ZipfCase &c, int count = 1000)
{
    ZipfianGenerator zipf(c.n, c.theta);
    Pcg32 rng(42, 7);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < count; ++i)
        out.push_back(zipf.next(rng));
    return out;
}

/** zipfStream() computed on a fresh thread, whose zeta memo is empty. */
std::vector<std::uint64_t>
freshZipfStream(const ZipfCase &c)
{
    std::vector<std::uint64_t> out;
    std::thread([&] { out = zipfStream(c); }).join();
    return out;
}

} // namespace

TEST(Zipfian, PinnedStreams)
{
    const std::vector<std::uint64_t> expected[] = {
        {144, 1474, 6, 22678, 2099, 205, 994, 8645, 1744, 10, 1, 8314},
        {216, 423, 48, 766, 461, 242, 383, 632, 441, 66, 10, 627},
        {41, 280, 3, 2795, 376, 55, 202, 1233, 322, 5, 0, 1193},
        {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1},
    };
    for (std::size_t i = 0; i < std::size(kZipfCases); ++i) {
        const ZipfCase &c = kZipfCases[i];
        SCOPED_TRACE("n " + std::to_string(c.n) + " theta " +
                     std::to_string(c.theta));
        // Twice: the second generator takes zeta from the memo.
        for (int round = 0; round < 2; ++round)
            EXPECT_EQ(zipfStream(c, 12), expected[i]);
    }
}

TEST(Zipfian, InterleavedKeysMatchFreshGenerators)
{
    std::vector<std::vector<std::uint64_t>> fresh;
    for (const ZipfCase &c : kZipfCases)
        fresh.push_back(freshZipfStream(c));

    // Alternate between keys that share n or theta, so a memo keyed on
    // only one of them would hand a generator the wrong zeta.
    const ZipfCase mixed[] = {{1000, 0.99}, {1000, 0.5}, {100000, 0.5},
                              {100000, 0.99}, {10000, 0.99}};
    for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < std::size(kZipfCases); ++i) {
            ZipfianGenerator decoy(mixed[i].n, mixed[i].theta);
            EXPECT_EQ(zipfStream(kZipfCases[i]), fresh[i])
                << "case " << i << " round " << round;
        }
    }
}

TEST(Zipfian, ConcurrentConstructionMatches)
{
    std::vector<std::vector<std::uint64_t>> expected;
    for (const ZipfCase &c : kZipfCases)
        expected.push_back(zipfStream(c));

    constexpr std::size_t kThreads = 4;
    const std::size_t cases = std::size(kZipfCases);
    std::vector<std::vector<std::vector<std::uint64_t>>> got(kThreads);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            // Each thread visits the keys in its own rotated order.
            got[t].resize(cases);
            for (std::size_t k = 0; k < cases; ++k) {
                std::size_t i = (k + t) % cases;
                got[t][i] = zipfStream(kZipfCases[i]);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        for (std::size_t i = 0; i < cases; ++i)
            EXPECT_EQ(got[t][i], expected[i])
                << "thread " << t << " case " << i;
}
