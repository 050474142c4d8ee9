/**
 * @file
 * Unit tests for the set-associative cache and hierarchy models.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "sim/ticks.hh"

using namespace ddp::mem;
using namespace ddp::sim;

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
