/**
 * @file
 * Unit tests for the paged, key-indexed array.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/arena.hh"

using ddp::sim::PagedArray;

namespace {

struct Cell
{
    std::uint64_t value = 0;
};

using Array = PagedArray<Cell, 4>; // 16 elements per page

} // namespace

TEST(PagedArray, StartsWithoutStorage)
{
    Array a(100);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(a.numPages(), 7u); // 6 full pages + one of 4 elements
    EXPECT_EQ(a.residentPages(), 0u);
}

TEST(PagedArray, ConstReadOfAbsentPageAllocatesNothing)
{
    Array a(100);
    const Array &c = a;
    EXPECT_EQ(c[42].value, 0u);
    EXPECT_EQ(a.find(42), nullptr);
    EXPECT_EQ(a.residentPages(), 0u);
}

TEST(PagedArray, MutableTouchMaterializesOnePage)
{
    Array a(100);
    a[37].value = 5;
    EXPECT_EQ(a.residentPages(), 1u);
    EXPECT_TRUE(a.pageResident(37 / 16));
    const Array &c = a;
    EXPECT_EQ(c[37].value, 5u);
    // The rest of the page reads as default; other pages stay absent.
    EXPECT_EQ(c[32].value, 0u);
    EXPECT_FALSE(a.pageResident(0));
}

TEST(PagedArray, ProvisionCoversOverlappingPagesOnly)
{
    Array a(100);
    a.provision(20, 50); // pages 1..3, partial at both ends
    EXPECT_EQ(a.residentPages(), 3u);
    for (std::size_t p = 0; p < a.numPages(); ++p)
        EXPECT_EQ(a.pageResident(p), p >= 1 && p <= 3) << "page " << p;
    // Re-provisioning an overlapping range adds only the missing pages.
    a.provision(0, 100);
    EXPECT_EQ(a.residentPages(), a.numPages());
    a.provision(90, 500); // clamped to the array
    EXPECT_EQ(a.residentPages(), a.numPages());
}

TEST(PagedArray, ElementsNeverMove)
{
    Array a(100);
    Cell *first = &a[3];
    first->value = 9;
    a.provision(0, 100);
    for (std::uint64_t i = 0; i < 100; ++i)
        a[i].value += i;
    EXPECT_EQ(first, &a[3]);
    EXPECT_EQ(a[3].value, 12u);
}

TEST(PagedArray, ForEachResidentVisitsInIndexOrder)
{
    Array a(100);
    a[99].value = 1;
    a[5].value = 2;
    std::vector<std::uint64_t> seen;
    a.forEachResident([&](std::uint64_t i, Cell &) { seen.push_back(i); });
    // Page 0 (0..15) and the 4-element last page (96..99).
    ASSERT_EQ(seen.size(), 20u);
    EXPECT_EQ(seen.front(), 0u);
    EXPECT_EQ(seen[15], 15u);
    EXPECT_EQ(seen[16], 96u);
    EXPECT_EQ(seen.back(), 99u);
}
