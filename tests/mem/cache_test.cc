/**
 * @file
 * Unit tests for the set-associative cache and hierarchy models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "mem/cache.hh"
#include "sim/ticks.hh"

using namespace ddp::mem;
using namespace ddp::sim;

namespace {

/**
 * The dense directory SetAssocCache replaced: every set's ways
 * allocated up front, the set index taken with a division. The lazy
 * directory must be indistinguishable from it.
 */
class DenseReferenceCache
{
  public:
    DenseReferenceCache(std::uint64_t capacity, std::uint32_t ways,
                        std::uint32_t line_bytes, std::uint32_t ddio_ways)
        : sets(static_cast<std::uint32_t>(
              capacity / (std::uint64_t{ways} * line_bytes))),
          ways(ways), lineBytes(line_bytes), ddioWays(ddio_ways),
          lines(std::size_t{sets} * ways)
    {
    }

    bool
    access(std::uint64_t addr)
    {
        if (Line *l = find(addr)) {
            l->stamp = ++stamp;
            ++hits;
            return true;
        }
        ++misses;
        return false;
    }

    bool contains(std::uint64_t addr) { return find(addr) != nullptr; }
    void insert(std::uint64_t addr) { install(addr, 0, ways); }

    void
    insertDdio(std::uint64_t addr)
    {
        if (ddioWays == 0)
            insert(addr);
        else
            install(addr, ways - ddioWays, ways);
    }

    void
    invalidate(std::uint64_t addr)
    {
        if (Line *l = find(addr))
            l->stamp = 0;
    }

    void
    clear()
    {
        for (Line &l : lines)
            l.stamp = 0;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0; // 0 = invalid
    };

    Line *
    base(std::uint64_t line)
    {
        std::uint64_t h = line * 0x9e3779b97f4a7c15ULL;
        std::uint32_t set = static_cast<std::uint32_t>((h >> 32) % sets);
        return &lines[std::size_t{set} * ways];
    }

    Line *
    find(std::uint64_t addr)
    {
        std::uint64_t line = addr / lineBytes;
        Line *b = base(line);
        for (std::uint32_t w = 0; w < ways; ++w)
            if (b[w].stamp != 0 && b[w].tag == line)
                return &b[w];
        return nullptr;
    }

    void
    install(std::uint64_t addr, std::uint32_t wb, std::uint32_t we)
    {
        std::uint64_t line = addr / lineBytes;
        Line *b = base(line);
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (b[w].stamp != 0 && b[w].tag == line) {
                b[w].stamp = ++stamp;
                return;
            }
        }
        Line *victim = nullptr;
        for (std::uint32_t w = wb; w < we; ++w) {
            if (b[w].stamp == 0) {
                victim = &b[w];
                break;
            }
            if (!victim || b[w].stamp < victim->stamp)
                victim = &b[w];
        }
        victim->tag = line;
        victim->stamp = ++stamp;
    }

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint32_t lineBytes;
    std::uint32_t ddioWays;
    std::vector<Line> lines;
    std::uint64_t stamp = 0;
};

} // namespace

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(1024, 2); // 8 sets x 2 ways x 64B
    EXPECT_FALSE(c.access(0));
    c.insert(0);
    EXPECT_TRUE(c.access(0));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, SameLineDifferentOffsets)
{
    SetAssocCache c(1024, 2);
    c.insert(0);
    EXPECT_TRUE(c.access(63));  // same 64B line
    EXPECT_FALSE(c.access(64)); // next line
}

TEST(SetAssocCache, LruEvictionWithinSet)
{
    // Single-set cache: 2 ways, 2 lines capacity.
    SetAssocCache c(128, 2);
    ASSERT_EQ(c.numSets(), 1u);
    c.insert(0 * 64);
    c.insert(1 * 64);
    c.access(0 * 64); // make line 0 MRU
    c.insert(2 * 64); // evicts line 1 (LRU)
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(1 * 64));
    EXPECT_TRUE(c.contains(2 * 64));
}

TEST(SetAssocCache, InsertRefreshesExisting)
{
    SetAssocCache c(128, 2);
    c.insert(0 * 64);
    c.insert(1 * 64);
    c.insert(0 * 64); // refresh, not duplicate
    c.insert(2 * 64); // should evict line 1
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(1 * 64));
}

// Line address 0 has tag 0, the value every empty way also holds, so
// these tests run it through every state change: an encoding that read
// validity from the tag would report it present in an empty cache.
TEST(SetAssocCache, InvalidateRemoves)
{
    SetAssocCache c(1024, 2);
    EXPECT_FALSE(c.contains(0)); // empty ways hold tag 0
    c.insert(0);
    c.insert(64);
    EXPECT_TRUE(c.contains(0));
    c.invalidate(0);
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(64));
    EXPECT_FALSE(c.access(0));
    c.insert(0);
    EXPECT_TRUE(c.contains(0));
    // Invalidating an absent line is a no-op.
    c.invalidate(4096);
    EXPECT_TRUE(c.contains(0));
}

TEST(SetAssocCache, ClearDropsEverything)
{
    SetAssocCache c(1024, 2);
    for (std::uint64_t i = 0; i < 8; ++i)
        c.insert(i * 64);
    EXPECT_TRUE(c.contains(0));
    c.clear();
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_FALSE(c.contains(i * 64));
    EXPECT_FALSE(c.access(0));
    c.clear(); // clearing an empty cache is a no-op
    EXPECT_FALSE(c.contains(0));
}

TEST(SetAssocCache, RefillAfterClearUsesFreeWaysThenLru)
{
    // One set, 4 ways.
    SetAssocCache c(256, 4);
    ASSERT_EQ(c.numSets(), 1u);
    for (std::uint64_t i = 0; i < 4; ++i)
        c.insert(i * 64);
    c.clear();

    // Four fills land in the four freed ways: nothing is evicted.
    for (std::uint64_t i = 4; i < 8; ++i)
        c.insert(i * 64);
    for (std::uint64_t i = 4; i < 8; ++i)
        EXPECT_TRUE(c.contains(i * 64));
    c.insert(0);
    EXPECT_FALSE(c.contains(4 * 64)); // the fifth fill evicts the LRU
    for (std::uint64_t i = 5; i < 8; ++i)
        EXPECT_TRUE(c.contains(i * 64));
    EXPECT_TRUE(c.contains(0));

    // LRU order follows the refill's accesses: 5 is refreshed, so 6
    // and then 7 go first.
    c.access(5 * 64);
    c.insert(8 * 64);
    EXPECT_FALSE(c.contains(6 * 64));
    c.insert(9 * 64);
    EXPECT_FALSE(c.contains(7 * 64));
    EXPECT_TRUE(c.contains(5 * 64));
    EXPECT_TRUE(c.contains(0));

    // An invalidated way is taken before the LRU line.
    c.invalidate(8 * 64);
    c.insert(10 * 64);
    EXPECT_TRUE(c.contains(0)); // LRU survives
    EXPECT_TRUE(c.contains(5 * 64));
    EXPECT_TRUE(c.contains(9 * 64));
    EXPECT_TRUE(c.contains(10 * 64));
}

TEST(SetAssocCache, DdioConfinedToPartition)
{
    // One set, 4 ways, 1 DDIO way (the last).
    SetAssocCache c(256, 4, 64, 1);
    c.insert(0 * 64);
    c.insert(1 * 64);
    c.insert(2 * 64);
    c.insert(3 * 64); // set full: CPU lines in all 4 ways
    // DDIO insertions may only use the last way; repeated DDIO fills
    // evict each other, never the first three CPU lines.
    c.insertDdio(10 * 64);
    c.insertDdio(11 * 64);
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_TRUE(c.contains(1 * 64));
    EXPECT_TRUE(c.contains(2 * 64));
    EXPECT_FALSE(c.contains(10 * 64)); // evicted by 11
    EXPECT_TRUE(c.contains(11 * 64));
}

TEST(SetAssocCache, DdioZeroWaysFallsBackToFullSet)
{
    SetAssocCache c(256, 4, 64, 0);
    c.insertDdio(0);
    EXPECT_TRUE(c.contains(0));
}

TEST(CacheHierarchyParams, PaperLatencies)
{
    CacheHierarchyParams p = CacheHierarchyParams::paperDefault();
    EXPECT_EQ(p.l1Latency, 1 * kNanosecond);      // 2 cycles @ 2GHz
    EXPECT_EQ(p.l2Latency, 6 * kNanosecond);      // 12 cycles
    EXPECT_EQ(p.llcLatency, 19 * kNanosecond);    // 38 cycles
}

TEST(CacheHierarchy, MissFillsAllLevels)
{
    CacheHierarchy h(CacheHierarchyParams::paperDefault());
    auto first = h.access(0);
    EXPECT_FALSE(first.hit);
    auto second = h.access(0);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.latency, 1 * kNanosecond); // L1 hit
}

TEST(CacheHierarchy, L2HitAfterL1Eviction)
{
    CacheHierarchyParams p = CacheHierarchyParams::paperDefault();
    CacheHierarchy h(p);
    h.access(0);
    // Blow L1 (64KB, 8-way = 128 sets): access many conflicting lines.
    for (std::uint64_t i = 1; i < 4000; ++i)
        h.access(i * 64);
    auto r = h.access(0);
    EXPECT_TRUE(r.hit);
    EXPECT_GT(r.latency, p.l1Latency);
}

TEST(CacheHierarchy, DdioDeliversToLlc)
{
    CacheHierarchyParams p = CacheHierarchyParams::paperDefault();
    CacheHierarchy h(p);
    EXPECT_EQ(h.deliverDdio(0), p.llcLatency);
    EXPECT_TRUE(h.llc().contains(0));
    // Not in L1/L2: a CPU access hits at LLC.
    auto r = h.access(0);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, p.llcLatency);
}

TEST(CacheHierarchy, InvalidateDropsAllLevels)
{
    CacheHierarchy h(CacheHierarchyParams::paperDefault());
    h.access(0);
    h.invalidate(0);
    auto r = h.access(0);
    EXPECT_FALSE(r.hit);
}

TEST(CacheHierarchy, CrashWipesVolatileContents)
{
    CacheHierarchy h(CacheHierarchyParams::paperDefault());
    for (std::uint64_t i = 0; i < 32; ++i)
        h.access(i * 64);
    h.crash();
    auto r = h.access(0);
    EXPECT_FALSE(r.hit);
}

// Randomized differential test: the lazily materialized directory and
// its fused miss path (access + fillMiss) against the dense reference,
// over sparse and dense address mixes, with and without a DDIO
// partition, on set counts that are and are not powers of two and
// that span several way-block chunks.
TEST(SetAssocCache, LazySetsMatchDenseReference)
{
    struct Shape
    {
        std::uint32_t sets;
        std::uint32_t ways;
    };
    const Shape shapes[] = {{1, 4}, {8, 2}, {40, 4}, {640, 8}, {1024, 16}};
    for (const Shape &shape : shapes) {
        for (std::uint32_t ddio : {0u, 2u}) {
            if (ddio >= shape.ways)
                continue;
            for (bool sparse : {true, false}) {
                SCOPED_TRACE(::testing::Message()
                             << shape.sets << " sets x " << shape.ways
                             << " ways, ddio " << ddio
                             << (sparse ? ", sparse" : ", dense"));
                const std::uint64_t cap =
                    std::uint64_t{shape.sets} * shape.ways * 64;
                SetAssocCache lazy(cap, shape.ways, 64, ddio);
                DenseReferenceCache ref(cap, shape.ways, 64, ddio);
                ASSERT_EQ(lazy.numSets(), shape.sets);
                std::mt19937_64 rng(shape.sets * 131 + ddio * 7 + sparse);
                // Sparse: lines scattered over a space far larger than
                // the cache. Dense: a pool of ~2x the capacity, so sets
                // fill, evict and refresh constantly.
                const std::uint64_t span =
                    sparse ? (std::uint64_t{1} << 40)
                           : std::uint64_t{shape.sets} * shape.ways * 2;
                for (int i = 0; i < 20000; ++i) {
                    std::uint64_t addr = (rng() % span) * 64 + rng() % 64;
                    switch (rng() % 16) {
                      case 0:
                      case 1:
                      case 2:
                        lazy.insert(addr);
                        ref.insert(addr);
                        break;
                      case 3:
                      case 4:
                        lazy.insertDdio(addr);
                        ref.insertDdio(addr);
                        break;
                      case 5:
                      case 6:
                      case 7:
                        ASSERT_EQ(lazy.access(addr), ref.access(addr));
                        break;
                      case 8:
                      case 9:
                      case 10: {
                        // The hierarchy's miss path.
                        SetAssocCache::Lookup at;
                        bool hit = lazy.access(addr, at);
                        ASSERT_EQ(hit, ref.access(addr));
                        if (!hit) {
                            lazy.fillMiss(at);
                            ref.insert(addr);
                        }
                        break;
                      }
                      case 11:
                      case 12:
                        lazy.invalidate(addr);
                        ref.invalidate(addr);
                        break;
                      case 13:
                        if (rng() % 64 == 0) {
                            lazy.clear();
                            ref.clear();
                        }
                        break;
                      default:
                        ASSERT_EQ(lazy.contains(addr), ref.contains(addr));
                        break;
                    }
                }
                EXPECT_EQ(lazy.hits(), ref.hits);
                EXPECT_EQ(lazy.misses(), ref.misses);
                // Final contents agree line by line over the dense pool
                // (sparse runs: over the lines the RNG would revisit).
                for (std::uint64_t l = 0; l < 4096; ++l)
                    ASSERT_EQ(lazy.contains(l * 64), ref.contains(l * 64))
                        << "line " << l;
            }
        }
    }
}

TEST(SetAssocCache, ResidentSetsTrackTouch)
{
    // The paper LLC: 40,960 sets, none resident until installed into.
    SetAssocCache c(40ULL << 20, 16, 64, 2);
    ASSERT_EQ(c.numSets(), 40960u);
    EXPECT_EQ(c.residentSets(), 0u);

    // Lookups and invalidations of untouched sets materialize nothing.
    for (std::uint64_t l = 0; l < 1000; ++l) {
        EXPECT_FALSE(c.access(l * 64));
        EXPECT_FALSE(c.contains(l * 64));
        c.invalidate(l * 64);
    }
    EXPECT_EQ(c.residentSets(), 0u);

    // Installing into k distinct sets materializes exactly those k
    // (the set index below is the directory's own hash).
    std::set<std::uint64_t> touched;
    for (std::uint64_t l = 0; l < 3000; ++l) {
        if (l % 3 == 0)
            c.insertDdio(l * 64);
        else
            c.insert(l * 64);
        touched.insert(((l * 0x9e3779b97f4a7c15ULL) >> 32) % 40960);
        ASSERT_EQ(c.residentSets(), touched.size()) << "line " << l;
    }

    // Re-inserting resident lines adds no set.
    std::size_t before = c.residentSets();
    for (std::uint64_t l = 0; l < 3000; ++l)
        c.insert(l * 64);
    EXPECT_EQ(c.residentSets(), before);

    c.clear();
    EXPECT_EQ(c.residentSets(), 0u);
    EXPECT_FALSE(c.contains(0));
    // Blocks reused after clear() come back empty.
    c.insert(7 * 64);
    EXPECT_EQ(c.residentSets(), 1u);
    EXPECT_TRUE(c.contains(7 * 64));
    for (std::uint64_t l = 0; l < 3000; ++l) {
        if (l != 7) {
            ASSERT_FALSE(c.contains(l * 64)) << "line " << l;
        }
    }
}
