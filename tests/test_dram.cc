/**
 * @file
 * DRAM model tests: per-command timing constraint verification (via
 * the command trace), controller scheduling behavior, address mapping,
 * bus-only transfers, and refresh.
 */

#include <gtest/gtest.h>

#include <map>

#include "dram/controller.h"
#include "dram/power.h"
#include "sim/event_queue.h"

namespace ansmet::dram {
namespace {

TimingParams
timing()
{
    return TimingParams{};
}

OrgParams
smallOrg()
{
    OrgParams org;
    org.channels = 1;
    org.dimmsPerChannel = 1;
    org.ranksPerDimm = 1;
    return org;
}

/** Check every pairwise constraint on a recorded command trace. */
void
verifyTrace(const std::vector<CommandRecord> &trace, const TimingParams &tp,
            const OrgParams &org)
{
    struct BankView
    {
        Tick lastAct{};
        Tick lastPre{};
        Tick lastCol{};
        bool open = false;
        bool sawAct = false, sawPre = false, sawCol = false;
    };
    std::map<unsigned, BankView> banks;
    Tick lastActRank{};
    bool sawActRank = false;
    std::vector<Tick> actWindow;

    for (const auto &c : trace) {
        if (c.cmd == Command::kRef)
            continue;
        const unsigned flat = c.bankGroup * org.banksPerGroup + c.bank;
        BankView &b = banks[flat];
        switch (c.cmd) {
          case Command::kAct:
            ASSERT_FALSE(b.open) << "ACT on open bank @" << c.tick;
            if (b.sawAct) {
                EXPECT_GE(c.tick, b.lastAct + tp.cycles(tp.tRC));
            }
            if (b.sawPre) {
                EXPECT_GE(c.tick, b.lastPre + tp.cycles(tp.tRP));
            }
            if (sawActRank) {
                EXPECT_GE(c.tick, lastActRank + tp.cycles(tp.tRRD_S));
            }
            actWindow.push_back(c.tick);
            if (actWindow.size() > 4)
                actWindow.erase(actWindow.begin());
            if (actWindow.size() == 4) {
                EXPECT_GE(c.tick, actWindow.front()); // window recorded
            }
            b.lastAct = c.tick;
            b.sawAct = true;
            b.open = true;
            lastActRank = c.tick;
            sawActRank = true;
            break;
          case Command::kPre:
            ASSERT_TRUE(b.open);
            EXPECT_GE(c.tick, b.lastAct + tp.cycles(tp.tRAS));
            if (b.sawCol) {
                EXPECT_GE(c.tick, b.lastCol + tp.cycles(tp.tRTP));
            }
            b.lastPre = c.tick;
            b.sawPre = true;
            b.open = false;
            break;
          case Command::kRd:
          case Command::kWr:
            ASSERT_TRUE(b.open) << "column command to closed bank";
            EXPECT_GE(c.tick, b.lastAct + tp.cycles(tp.tRCD));
            b.lastCol = c.tick;
            b.sawCol = true;
            break;
          default:
            break;
        }
    }
}

TEST(RankDevice, ClosedPageReadLatency)
{
    const auto tp = timing();
    RankDevice dev(tp, smallOrg());
    BankAddr a{0, 0, 5, 17};

    const Tick act = dev.earliestAct(a, Tick{});
    EXPECT_EQ(act, Tick{});
    dev.issueAct(a, act);
    const Tick col = dev.earliestCol(a, false, act);
    EXPECT_EQ(col, act + tp.cycles(tp.tRCD));
    const Tick done = dev.issueCol(a, false, col);
    EXPECT_EQ(done, col + tp.cycles(tp.tCL + tp.tBL));
}

TEST(RankDevice, RowConflictNeedsPrecharge)
{
    const auto tp = timing();
    RankDevice dev(tp, smallOrg());
    BankAddr a{0, 0, 5, 0};
    BankAddr b{0, 0, 9, 0};

    dev.issueAct(a, Tick{});
    EXPECT_TRUE(dev.openRow(b).has_value());
    EXPECT_EQ(*dev.openRow(b), 5u);

    const Tick pre = dev.earliestPre(b, Tick{});
    EXPECT_GE(pre, Tick{} + tp.cycles(tp.tRAS));
    dev.issuePre(b, pre);
    EXPECT_FALSE(dev.openRow(b).has_value());
    const Tick act = dev.earliestAct(b, pre);
    EXPECT_GE(act, pre + tp.cycles(tp.tRP));
}

TEST(RankDevice, FawLimitsActivates)
{
    const auto tp = timing();
    RankDevice dev(tp, smallOrg());
    Tick t{};
    // Four ACTs to different bank groups, spaced at tRRD_S.
    for (unsigned i = 0; i < 4; ++i) {
        BankAddr a{i, 0, 1, 0};
        t = dev.earliestAct(a, t);
        dev.issueAct(a, t);
    }
    BankAddr fifth{4, 0, 1, 0};
    const Tick e = dev.earliestAct(fifth, t);
    // The fifth ACT must wait for the FAW window from the first.
    EXPECT_GE(e, Tick{} + (dev.trace().empty() ? TickDelta{}
                                               : tp.cycles(tp.tFAW)));
    EXPECT_GE(e, Tick{} + tp.cycles(tp.tFAW));
}

TEST(RankDevice, WriteRecoveryGatesRead)
{
    const auto tp = timing();
    RankDevice dev(tp, smallOrg());
    BankAddr a{0, 0, 1, 0};
    dev.issueAct(a, Tick{});
    const Tick wr = dev.earliestCol(a, true, Tick{});
    const Tick wr_end = dev.issueCol(a, true, wr);
    const Tick rd = dev.earliestCol(a, false, wr + tp.tCK);
    EXPECT_GE(rd, wr_end + tp.cycles(tp.tWTR));
}

TEST(RankDevice, RefreshBlocksAndCloses)
{
    const auto tp = timing();
    RankDevice dev(tp, smallOrg());
    BankAddr a{0, 0, 1, 0};
    dev.issueAct(a, Tick{});
    const Tick after_refi = Tick{} + tp.cycles(tp.tREFI) + TickDelta{10};
    dev.catchUpRefresh(after_refi);
    EXPECT_EQ(dev.numRefreshes(), 1u);
    EXPECT_FALSE(dev.openRow(a).has_value());
    EXPECT_GE(dev.earliestAct(a, after_refi),
              Tick{} + tp.cycles(tp.tREFI) + tp.cycles(tp.tRFC));
}

TEST(MemController, SingleReadCompletes)
{
    sim::EventQueue eq;
    const auto tp = timing();
    MemController ctrl(eq, tp, smallOrg(), 1, "t");

    Tick done{};
    Request req;
    req.addr = BankAddr{0, 0, 1, 0};
    req.onComplete = [&](Tick t) { done = t; };
    ctrl.enqueue(0, std::move(req));
    eq.run();

    // Closed page: ACT + tRCD + CL + tBL.
    EXPECT_EQ(done, Tick{} + tp.cycles(tp.tRCD + tp.tCL + tp.tBL));
}

TEST(MemController, RowHitsAreFasterThanConflicts)
{
    sim::EventQueue eq;
    const auto tp = timing();
    MemController ctrl(eq, tp, smallOrg(), 1, "t");

    std::vector<Tick> hit_done(4), conf_done(2);
    for (unsigned i = 0; i < 4; ++i) {
        Request req;
        req.addr = BankAddr{0, 0, 1, i};
        req.onComplete = [&, i](Tick t) { hit_done[i] = t; };
        ctrl.enqueue(0, std::move(req));
    }
    eq.run();
    const TickDelta hits_span = hit_done[3] - hit_done[0];

    sim::EventQueue eq2;
    MemController ctrl2(eq2, tp, smallOrg(), 1, "t2");
    for (unsigned i = 0; i < 2; ++i) {
        Request req;
        req.addr = BankAddr{0, 0, i + 1, 0}; // different rows, same bank
        req.onComplete = [&, i](Tick t) { conf_done[i] = t; };
        ctrl2.enqueue(0, std::move(req));
    }
    eq2.run();
    EXPECT_LT(hits_span, conf_done[1] - conf_done[0]);
}

TEST(MemController, TimingTraceIsClean)
{
    sim::EventQueue eq;
    const auto tp = timing();
    const auto org = smallOrg();
    MemController ctrl(eq, tp, org, 1, "t");
    ctrl.rankDevice(0).enableTrace();

    // A pseudo-random mix of reads and writes across banks and rows.
    std::uint64_t state = 12345;
    unsigned completed = 0;
    for (int i = 0; i < 300; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        Request req;
        req.addr.bankGroup = (state >> 10) % org.bankGroups;
        req.addr.bank = (state >> 20) % org.banksPerGroup;
        req.addr.row = (state >> 30) % 8;
        req.addr.column = (state >> 40) % org.columns;
        req.isWrite = ((state >> 50) & 3) == 0;
        req.onComplete = [&](Tick) { ++completed; };
        ctrl.enqueue(0, std::move(req));
    }
    eq.run();
    EXPECT_EQ(completed, 300u);
    verifyTrace(ctrl.rankDevice(0).trace(), tp, org);
}

TEST(MemController, MultiRankParallelismBeatsSingleRank)
{
    const auto tp = timing();
    const auto org = smallOrg();
    const int n = 64;

    auto run_banked = [&](unsigned ranks) {
        sim::EventQueue eq;
        MemController ctrl(eq, tp, org, ranks, "t");
        for (int i = 0; i < n; ++i) {
            Request req;
            // Same bank+row conflict pattern within each rank.
            req.addr = BankAddr{0, 0, static_cast<unsigned>(i), 0};
            req.onComplete = nullptr;
            ctrl.enqueue(i % ranks, std::move(req));
        }
        eq.run();
        return eq.now();
    };

    // Spreading conflicting rows over ranks hides tRC.
    EXPECT_LT(run_banked(4), run_banked(1));
}

TEST(MemController, BusTransferLatency)
{
    sim::EventQueue eq;
    const auto tp = timing();
    MemController ctrl(eq, tp, smallOrg(), 1, "t");
    Tick done{};
    ctrl.enqueueBusTransfer(true, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done, Tick{} + tp.cycles(tp.tCWL + tp.tBL));
}

TEST(MemController, TransfersCountReadsWritesAndBusTransfers)
{
    sim::EventQueue eq;
    const auto org = smallOrg();
    MemController ctrl(eq, timing(), org, 1, "t");
    constexpr unsigned kReads = 7, kWrites = 5, kBus = 3;
    for (unsigned i = 0; i < kReads + kWrites; ++i) {
        Request req;
        req.addr = mapLine(i, org);
        req.isWrite = i >= kReads;
        ctrl.enqueue(0, std::move(req));
    }
    for (unsigned i = 0; i < kBus; ++i)
        ctrl.enqueueBusTransfer(i % 2 == 0, nullptr);
    EXPECT_EQ(ctrl.transfers(), kReads + kWrites + kBus);
    eq.run();
    EXPECT_EQ(ctrl.transfers(), kReads + kWrites + kBus);
}

TEST(MemController, BandwidthApproachesPeakOnStreams)
{
    sim::EventQueue eq;
    const auto tp = timing();
    const auto org = smallOrg();
    MemController ctrl(eq, tp, org, 1, "t");

    const int n = 512;
    for (int i = 0; i < n; ++i) {
        Request req;
        req.addr = mapLine(static_cast<std::uint64_t>(i), org);
        req.onComplete = nullptr;
        ctrl.enqueue(0, std::move(req));
    }
    eq.run();
    // Streaming row hits should keep the data bus > 70% utilized.
    const double util = static_cast<double>(ctrl.dataBusBusy().raw()) /
                        static_cast<double>(eq.now().raw());
    EXPECT_GT(util, 0.7);
}

TEST(AddrMap, BijectiveOverARange)
{
    const auto org = smallOrg();
    std::map<std::tuple<unsigned, unsigned, unsigned, unsigned>,
             std::uint64_t>
        seen;
    for (std::uint64_t line = 0; line < 100000; line += 37) {
        const BankAddr a = mapLine(line, org);
        const auto key =
            std::make_tuple(a.bankGroup, a.bank, a.row, a.column);
        EXPECT_EQ(seen.count(key), 0u) << "collision at line " << line;
        seen[key] = line;
        EXPECT_LT(a.bankGroup, org.bankGroups);
        EXPECT_LT(a.bank, org.banksPerGroup);
        EXPECT_LT(a.row, org.rows);
        EXPECT_LT(a.column, org.columns);
    }
}

TEST(Power, EnergyScalesWithActivity)
{
    const auto tp = timing();
    const auto org = smallOrg();
    RankDevice dev(tp, org);
    const EnergyParams ep;

    const auto idle = rankEnergy(dev, ep, TickDelta{1000000}, 0);
    EXPECT_DOUBLE_EQ(idle.actPreNj, 0.0);
    EXPECT_GT(idle.backgroundNj, 0.0);

    BankAddr a{0, 0, 1, 0};
    dev.issueAct(a, Tick{});
    dev.issueCol(a, false, dev.earliestCol(a, false, Tick{}));
    const auto active = rankEnergy(dev, ep, TickDelta{1000000}, 1);
    EXPECT_GT(active.actPreNj, 0.0);
    EXPECT_GT(active.rdWrCoreNj, 0.0);
    EXPECT_GT(active.ioNj, 0.0);
    EXPECT_GT(active.totalNj(), idle.totalNj());
}

TEST(DeviceInvariants, ColumnToClosedRowPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RankDevice dev(timing(), smallOrg());
    const BankAddr a{0, 0, 5, 0};
    EXPECT_DEATH(dev.issueCol(a, false, Tick{100}),
                 "column command to a closed/incorrect row");
}

TEST(DeviceInvariants, ColumnToWrongRowPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RankDevice dev(timing(), smallOrg());
    const BankAddr opened{0, 0, 5, 0};
    dev.issueAct(opened, dev.earliestAct(opened, Tick{}));
    const BankAddr wrong{0, 0, 6, 0};
    EXPECT_DEATH(
        dev.issueCol(wrong, false,
                     dev.earliestCol(wrong, false, Tick{1000000})),
        "closed/incorrect row");
}

TEST(DeviceInvariants, ActOnOpenBankPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RankDevice dev(timing(), smallOrg());
    const BankAddr a{0, 0, 5, 0};
    dev.issueAct(a, dev.earliestAct(a, Tick{}));
    const BankAddr other_row{0, 0, 9, 0};
    EXPECT_DEATH(dev.issueAct(other_row, Tick{1000000}),
                 "ACT to a bank with an open row");
}

TEST(DeviceInvariants, ActTimingViolationPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const TimingParams tp = timing();
    RankDevice dev(tp, smallOrg());
    const BankAddr a{0, 0, 5, 0};
    dev.issueAct(a, dev.earliestAct(a, Tick{}));
    dev.issuePre(a, dev.earliestPre(a, Tick{} + tp.cycles(tp.tRAS)));
    // Re-activating before tRP after the precharge violates timing.
    EXPECT_DEATH(
        dev.issueAct(a, dev.earliestAct(a, Tick{}) - TickDelta{1}),
        "ACT timing violation");
}

} // namespace
} // namespace ansmet::dram
