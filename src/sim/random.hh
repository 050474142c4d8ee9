/**
 * @file
 * Deterministic random number generation for DDPSim.
 *
 * We implement PCG32 (O'Neill, 2014) rather than relying on std::mt19937
 * so that streams are cheap to fork per-client and the simulator's
 * behaviour is identical across standard libraries. On top of the raw
 * generator we provide the samplers the workload layer needs: uniform
 * integers/doubles, bounded exponentials, and the Gray et al. zipfian
 * generator used by YCSB.
 */

#ifndef DDP_SIM_RANDOM_HH
#define DDP_SIM_RANDOM_HH

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

namespace ddp::sim {

/**
 * PCG32: 64-bit state, 32-bit output, period 2^64 per stream.
 * Distinct stream ids yield statistically independent sequences from the
 * same seed, which we use to give every client its own stream.
 */
class Pcg32
{
  public:
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state = 0;
        inc = (stream << 1) | 1u;
        nextU32();
        state += seed;
        nextU32();
    }

    /** Next raw 32-bit value. */
    std::uint32_t
    nextU32()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        auto xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        auto rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    nextU64()
    {
        return (static_cast<std::uint64_t>(nextU32()) << 32) | nextU32();
    }

    /** Uniform integer in [0, bound), bias-free via rejection. */
    std::uint32_t
    nextBounded(std::uint32_t bound)
    {
        assert(bound > 0);
        std::uint32_t threshold = -bound % bound;
        for (;;) {
            std::uint32_t r = nextU32();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return (nextU64() >> 11) * (1.0 / 9007199254740992.0);
    }

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

/**
 * Zipfian-distributed integers in [0, n), using the Gray et al. rejection
 * method popularized by YCSB. theta is the skew (YCSB default 0.99);
 * any finite theta >= 0 is accepted. theta == 1 (the harmonic Zipf
 * singularity of the Gray formula, where alpha = 1/(1-theta) blows up)
 * is handled by the analytic limit of the quantile map: as theta -> 1,
 *   n * (eta*u - eta + 1)^(1/(1-theta))  ->  n * exp(c * (u - 1))
 * with c = ln(n/2) / (1 - zeta(2)/zeta(n)).
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta = 0.99)
        : items(n), theta(theta)
    {
        assert(n > 0);
        assert(theta >= 0.0);
        zetan = memoZeta(n, theta);
        zeta2 = zeta(2, theta);
        if (n == 1) {
            // Sole item: next() always takes the uz < 1 branch (zetan
            // == 1). zeta(2) > zeta(1) would poison eta's denominator,
            // so park the unused coefficients at inert values.
            harmonic = false;
            alpha = 1.0;
            eta = 0.0;
        } else if (theta == 1.0) {
            harmonic = true;
            alpha = 0.0; // unused on the harmonic path
            eta = std::log(static_cast<double>(n) / 2.0) /
                  (1.0 - zeta2 / zetan);
        } else {
            harmonic = false;
            alpha = 1.0 / (1.0 - theta);
            eta = (1.0 -
                   std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
                  (1.0 - zeta2 / zetan);
        }
    }

    /** Sample an item index; item 0 is the most popular. */
    std::uint64_t
    next(Pcg32 &rng) const
    {
        double u = rng.nextDouble();
        double uz = u * zetan;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta))
            return 1;
        double scaled =
            harmonic ? std::exp(eta * (u - 1.0))
                     : std::pow(eta * u - eta + 1.0, alpha);
        auto idx = static_cast<std::uint64_t>(
            static_cast<double>(items) * scaled);
        return idx >= items ? items - 1 : idx;
    }

    std::uint64_t itemCount() const { return items; }
    double skew() const { return theta; }

  private:
    static double
    zeta(std::uint64_t n, double theta)
    {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        return sum;
    }

    /**
     * zeta(n, theta), computed once per distinct (n, theta) on each
     * thread. Every client of a cluster samples the same key space, so
     * without the memo a cluster's setup pays clients x n std::pow
     * calls. The memo holds the exact left-to-right sum zeta() returns
     * (never a closed-form approximation, which would shift every
     * sampled key), and it is thread_local because SweepRunner builds
     * clusters on several threads at once. theta is keyed by its bit
     * pattern, which keeps the map's ordering total.
     */
    static double
    memoZeta(std::uint64_t n, double theta)
    {
        thread_local std::map<std::pair<std::uint64_t, std::uint64_t>,
                              double>
            memo;
        auto [it, fresh] = memo.try_emplace(
            {n, std::bit_cast<std::uint64_t>(theta)}, 0.0);
        if (fresh)
            it->second = zeta(n, theta);
        return it->second;
    }

    std::uint64_t items;
    double theta;
    double zetan;
    double zeta2;
    double alpha;
    double eta;
    bool harmonic = false;
};

} // namespace ddp::sim

#endif // DDP_SIM_RANDOM_HH
