/**
 * @file
 * Cache model tests: LRU replacement, set indexing, and hierarchy
 * fill/hit behavior.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"

namespace ansmet::cache {
namespace {

TEST(CacheArray, HitAfterFill)
{
    CacheArray c(4096, 4); // 16 sets
    EXPECT_FALSE(c.accessAndFill(0x1000));
    EXPECT_TRUE(c.accessAndFill(0x1000));
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(CacheArray, LruEviction)
{
    CacheArray c(4 * 64, 4); // a single set of 4 ways
    EXPECT_EQ(c.numSets(), 1u);

    // Fill 4 lines, then touch line 0 to refresh its LRU position.
    for (Addr a = 0; a < 4; ++a)
        c.accessAndFill(a * 64);
    EXPECT_TRUE(c.accessAndFill(0));

    // A fifth line must evict line 1 (the LRU), not line 0.
    c.accessAndFill(4 * 64);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(64));
    EXPECT_TRUE(c.probe(2 * 64));
}

TEST(CacheArray, SubLineOffsetsAlias)
{
    CacheArray c(4096, 4);
    c.accessAndFill(0x100);
    EXPECT_TRUE(c.probe(0x100 + 63)); // same 64 B line
    EXPECT_FALSE(c.probe(0x100 + 64));
}

TEST(CacheArray, DistinctSetsDontConflict)
{
    CacheArray c(2 * 64 * 2, 2); // 2 sets x 2 ways
    // These two addresses land in different sets.
    c.accessAndFill(0);
    c.accessAndFill(64);
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.probe(64));
}

TEST(CacheArray, Flush)
{
    CacheArray c(4096, 4);
    c.accessAndFill(0x40);
    c.flush();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Hierarchy, MissThenL1Hit)
{
    HierarchyParams p;
    CacheHierarchy h(p);
    EXPECT_EQ(h.access(0x1000), CacheHierarchy::Level::kMemory);
    EXPECT_EQ(h.access(0x1000), CacheHierarchy::Level::kL1);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    HierarchyParams p;
    p.l1Bytes = 8 * 64; // 1 set x 8 ways: tiny L1
    p.l1Assoc = 8;
    CacheHierarchy h(p);

    h.access(0); // install everywhere
    // Blow L1 (8 ways) with 8 new lines mapping to its single set.
    for (Addr a = 1; a <= 8; ++a)
        h.access(a * 64);
    EXPECT_EQ(h.access(0), CacheHierarchy::Level::kL2);
}

TEST(Hierarchy, HitCyclesOrdering)
{
    HierarchyParams p;
    CacheHierarchy h(p);
    EXPECT_LT(h.hitCycles(CacheHierarchy::Level::kL1),
              h.hitCycles(CacheHierarchy::Level::kL2));
    EXPECT_LT(h.hitCycles(CacheHierarchy::Level::kL2),
              h.hitCycles(CacheHierarchy::Level::kLlc));
}

TEST(Hierarchy, StatsCount)
{
    HierarchyParams p;
    CacheHierarchy h(p);
    EXPECT_EQ(h.access(0), CacheHierarchy::Level::kMemory);
    EXPECT_EQ(h.access(0), CacheHierarchy::Level::kL1);
    EXPECT_EQ(h.access(64), CacheHierarchy::Level::kMemory);
}

} // namespace
} // namespace ansmet::cache
