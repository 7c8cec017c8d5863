/**
 * @file
 * Rank-partitioning tests: dimension coverage, group structure across
 * the vertical/hybrid/horizontal spectrum, replication, and load
 * tracking.
 */

#include <gtest/gtest.h>

#include "layout/partition.h"

namespace ansmet::layout {
namespace {

TEST(Partitioner, HorizontalKeepsVectorInOneRank)
{
    Partitioner p(PartitionConfig::horizontal(32), 128, 1, 1000);
    EXPECT_EQ(p.ranksPerGroup(), 1u);
    EXPECT_EQ(p.numGroups(), 32u);
    const auto subs = p.placement(7);
    ASSERT_EQ(subs.size(), 1u);
    EXPECT_EQ(subs[0].dimBegin, 0u);
    EXPECT_EQ(subs[0].dimEnd, 128u);
}

TEST(Partitioner, VerticalSplitsAcrossManyRanks)
{
    // GIST-like: 960 dims x 4 B = 3840 B; 64 B sub-vectors want 60
    // ranks, capped at 32.
    Partitioner p(PartitionConfig::vertical(32), 960, 4, 1000);
    EXPECT_EQ(p.ranksPerGroup(), 32u);
    EXPECT_EQ(p.numGroups(), 1u);
}

TEST(Partitioner, Hybrid1kbMatchesPaperShape)
{
    // 960 x 4 B = 3840 B over 1 kB sub-vectors -> 4 ranks per group,
    // 8 groups of the 32 ranks.
    Partitioner p(PartitionConfig::hybrid(32, 1024), 960, 4, 1000);
    EXPECT_EQ(p.ranksPerGroup(), 4u);
    EXPECT_EQ(p.numGroups(), 8u);
}

TEST(Partitioner, SmallVectorsStayWholeUnderHybrid)
{
    // SIFT: 128 B < 1 kB -> one rank per vector even in hybrid mode.
    Partitioner p(PartitionConfig::hybrid(32, 1024), 128, 1, 1000);
    EXPECT_EQ(p.ranksPerGroup(), 1u);
    EXPECT_EQ(p.numGroups(), 32u);
}

TEST(Partitioner, PlacementCoversDimsExactlyOnce)
{
    Partitioner p(PartitionConfig::hybrid(32, 256), 960, 4, 100);
    for (VectorId v = 0; v < 100; ++v) {
        const auto subs = p.placement(v);
        unsigned expect = 0;
        for (const auto &s : subs) {
            EXPECT_EQ(s.dimBegin, expect);
            EXPECT_GT(s.dimEnd, s.dimBegin);
            EXPECT_LT(s.rank, 32u);
            expect = s.dimEnd;
        }
        EXPECT_EQ(expect, 960u);
    }
}

TEST(Partitioner, SubVectorsLandInOwnGroup)
{
    Partitioner p(PartitionConfig::hybrid(32, 1024), 960, 4, 100);
    for (VectorId v = 0; v < 100; ++v) {
        const unsigned g = p.groupOf(v);
        for (const auto &s : p.placement(v)) {
            EXPECT_GE(s.rank, g * p.ranksPerGroup());
            EXPECT_LT(s.rank, (g + 1) * p.ranksPerGroup());
        }
    }
}

TEST(Partitioner, GroupsAreReasonablyBalanced)
{
    Partitioner p(PartitionConfig::horizontal(8), 128, 1, 0);
    std::vector<unsigned> counts(8, 0);
    for (VectorId v = 0; v < 8000; ++v)
        ++counts[p.groupOf(v)];
    for (const unsigned c : counts) {
        EXPECT_GT(c, 700u);
        EXPECT_LT(c, 1300u);
    }
}

TEST(Partitioner, Replication)
{
    Partitioner p(PartitionConfig::hybrid(32, 1024), 960, 4, 100);
    EXPECT_FALSE(p.isReplicated(3));
    p.replicate({3, 5, 3}); // the duplicate id counts once
    EXPECT_TRUE(p.isReplicated(3));
    EXPECT_TRUE(p.isReplicated(5));
    EXPECT_FALSE(p.isReplicated(4));
    EXPECT_EQ(p.numReplicated(), 2u);
    EXPECT_EQ(p.replicationBytes(),
              2ull * (p.numGroups() - 1) * 960 * 4);

    // A replica placement in a foreign group stays in that group.
    const unsigned foreign = (p.groupOf(3) + 1) % p.numGroups();
    for (const auto &s : p.placement(3, foreign)) {
        EXPECT_GE(s.rank, foreign * p.ranksPerGroup());
        EXPECT_LT(s.rank, (foreign + 1) * p.ranksPerGroup());
    }

    EXPECT_DEATH(p.replicate({100}), "out of range");
}

TEST(LoadTracker, ImbalanceRatio)
{
    LoadTracker lt(4);
    lt.add(0, 100);
    lt.add(1, 100);
    lt.add(2, 100);
    lt.add(3, 100);
    EXPECT_DOUBLE_EQ(lt.imbalanceRatio(), 1.0);
    lt.add(0, 100);
    EXPECT_DOUBLE_EQ(lt.imbalanceRatio(), 200.0 / 125.0);
    EXPECT_EQ(lt.leastLoaded({0, 1, 2}), 1u);
}

} // namespace
} // namespace ansmet::layout
