/**
 * @file
 * Serial-vs-parallel determinism: every parallel stage (ground truth,
 * HNSW construction, concurrent search, trace replay, ET profile
 * build) must produce results bit-identical to the single-threaded
 * reference path for a fixed seed.
 *
 * Two SystemModel sessions may also run side by side on two threads:
 * each records into its own event queue's obs::RunRecord and publishes
 * it once, at endSession().
 *
 * The serial reference is obtained by running the stage through
 * runSerial() (run_serial.h): runtime work is flagged thread-local, so
 * every nested Runtime::global() entry point degrades to a plain
 * inline loop — exactly the ANSMET_THREADS=1 code path — while the
 * parallel run on the main thread uses the full global runtime. On a
 * single-core machine both sides are serial and the tests pass
 * trivially.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "anns/hnsw.h"
#include "common/runtime/runtime.h"
#include "core/system.h"
#include "core/trace.h"
#include "et/profile.h"
#include "obs/metrics.h"
#include "run_serial.h"

namespace ansmet {
namespace {

using anns::DatasetId;

const anns::Dataset &
dataset()
{
    static const anns::Dataset ds =
        anns::makeDataset(DatasetId::kSift, 1200, 10, 1);
    return ds;
}

TEST(ParallelDeterminism, GroundTruthMatchesSerial)
{
    const auto &ds = dataset();
    const auto par =
        anns::bruteForceAll(anns::Metric::kL2, ds.queries, *ds.base, 10);
    const auto ser = runSerial([&] {
        return anns::bruteForceAll(anns::Metric::kL2, ds.queries, *ds.base,
                                   10);
    });
    ASSERT_EQ(par.size(), ser.size());
    for (std::size_t q = 0; q < par.size(); ++q) {
        ASSERT_EQ(par[q].size(), ser[q].size()) << "query " << q;
        for (std::size_t i = 0; i < par[q].size(); ++i) {
            EXPECT_EQ(par[q][i].id, ser[q][i].id) << "query " << q;
            EXPECT_EQ(par[q][i].dist, ser[q][i].dist) << "query " << q;
        }
    }
}

/** Counter @p name of @p b minus that of @p a. */
std::uint64_t
counterDelta(const obs::Snapshot &a, const obs::Snapshot &b,
             const std::string &name)
{
    const auto ia = a.counters.find(name);
    const auto ib = b.counters.find(name);
    return (ib == b.counters.end() ? 0 : ib->second) -
           (ia == a.counters.end() ? 0 : ia->second);
}

TEST(ParallelDeterminism, HnswBuildMatchesSerial)
{
    const auto &ds = dataset();
    const anns::HnswParams params{16, 80, 42};
    obs::Registry &reg = obs::Registry::instance();
    const obs::Snapshot s0 = reg.snapshot();
    const anns::HnswIndex par(*ds.base, anns::Metric::kL2, params);
    const obs::Snapshot s1 = reg.snapshot();
    const auto ser = runSerial([&] {
        return std::make_unique<anns::HnswIndex>(*ds.base,
                                                 anns::Metric::kL2, params);
    });
    const obs::Snapshot s2 = reg.snapshot();

    // Each build publishes its searches' counts once, whatever the
    // lane count.
    for (const char *name : {"hnsw.hops", "hnsw.distance_comps"}) {
        EXPECT_GT(counterDelta(s0, s1, name), 0u) << name;
        EXPECT_EQ(counterDelta(s1, s2, name), counterDelta(s0, s1, name))
            << name;
    }
    // So does a single search.
    (void)par.search(ds.queries[0].data(), 10, 64);
    const obs::Snapshot s3 = reg.snapshot();
    EXPECT_GT(counterDelta(s2, s3, "hnsw.hops"), 0u);
    EXPECT_GT(counterDelta(s2, s3, "hnsw.distance_comps"), 0u);

    EXPECT_EQ(par.entryPoint(), ser->entryPoint());
    ASSERT_EQ(par.maxLevel(), ser->maxLevel());
    for (VectorId v = 0; v < ds.base->size(); ++v) {
        ASSERT_EQ(par.levelOf(v), ser->levelOf(v)) << "v=" << v;
        for (unsigned l = 0; l <= par.levelOf(v); ++l)
            EXPECT_EQ(par.neighbors(v, l), ser->neighbors(v, l))
                << "v=" << v << " level=" << l;
    }
}

TEST(ParallelDeterminism, ConcurrentSearchMatchesSerial)
{
    const auto &ds = dataset();
    const anns::HnswIndex idx(*ds.base, anns::Metric::kL2,
                              anns::HnswParams{16, 80, 42});

    std::vector<std::vector<VectorId>> serial(ds.queries.size());
    for (std::size_t q = 0; q < ds.queries.size(); ++q)
        serial[q] = idx.search(ds.queries[q].data(), 10, 64);

    // Search is const and uses leased visit scratch, so many threads
    // may query one index at once with identical per-query results.
    std::vector<std::vector<VectorId>> parallel(ds.queries.size());
    runtime::parallelFor(0, ds.queries.size(),
                         [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t q = lo; q < hi; ++q)
                                 parallel[q] =
                                     idx.search(ds.queries[q].data(), 10, 64);
                         },
                         /*grain=*/1);
    EXPECT_EQ(parallel, serial);
}

TEST(ParallelDeterminism, TraceReplayStatsMatchOnTheFlyReference)
{
    const auto ds = anns::makeDataset(DatasetId::kDeep, 1200, 10, 1);
    const anns::HnswIndex idx(*ds.base, ds.metric(),
                              anns::HnswParams{16, 80, 42});
    et::ProfileConfig pc;
    pc.numSamples = 60;
    pc.maxPairs = 600;
    const et::EtProfile profile = et::buildProfile(*ds.base, ds.metric(), pc);
    std::vector<core::QueryTrace> traces;
    for (const auto &q : ds.queries)
        traces.push_back(core::traceHnswQuery(idx, q, 10, 48));
    const unsigned top = idx.maxLevel();
    const auto hot = idx.verticesAtLevel(top >= 3 ? top - 3 : 1);

    auto run = [&](core::Design d, bool prefetch) {
        core::SystemConfig cfg;
        cfg.design = d;
        cfg.concurrentQueries = 8;
        cfg.prefetchReplay = prefetch;
        core::SystemModel model(cfg, *ds.base, ds.metric(), &profile, hot);
        return model.run(traces);
    };

    for (const core::Design d :
         {core::Design::kCpuEt, core::Design::kNdpEtOpt}) {
        const core::RunStats pre = run(d, true);
        const core::RunStats fly = run(d, false);
        EXPECT_EQ(pre.makespan, fly.makespan) << designName(d);
        EXPECT_DOUBLE_EQ(pre.energy.totalNj(), fly.energy.totalNj())
            << designName(d);
        ASSERT_EQ(pre.queries.size(), fly.queries.size());
        for (std::size_t q = 0; q < pre.queries.size(); ++q) {
            const auto &a = pre.queries[q];
            const auto &b = fly.queries[q];
            EXPECT_EQ(a.start, b.start) << designName(d) << " q=" << q;
            EXPECT_EQ(a.end, b.end) << designName(d) << " q=" << q;
            EXPECT_EQ(a.comparisons, b.comparisons);
            EXPECT_EQ(a.accepted, b.accepted);
            EXPECT_EQ(a.terminated, b.terminated);
            EXPECT_EQ(a.linesEffectual, b.linesEffectual);
            EXPECT_EQ(a.linesIneffectual, b.linesIneffectual);
            EXPECT_EQ(a.backupLines, b.backupLines);
            EXPECT_EQ(a.polls, b.polls);
        }
    }
}

TEST(ParallelDeterminism, ProfileBuildMatchesSerial)
{
    // The sampled pairs are evaluated with parallelFor into pair-indexed
    // slots; the profile must not depend on how many lanes ran them.
    const auto glove = anns::makeDataset(DatasetId::kGlove, 1200, 10, 1);
    for (const anns::Dataset *ds : {&dataset(), &glove}) {
        const et::EtProfile a = et::buildProfile(*ds->base, ds->metric());
        const et::EtProfile b = runSerial(
            [&] { return et::buildProfile(*ds->base, ds->metric()); });
        const char *name = anns::scalarName(ds->base->type());
        EXPECT_EQ(a.threshold, b.threshold) << name;
        EXPECT_EQ(a.etPositions, b.etPositions) << name;
        EXPECT_EQ(a.etFrequency, b.etFrequency) << name;
        EXPECT_EQ(a.prefixEntropy, b.prefixEntropy) << name;
        EXPECT_EQ(a.fetchCountDist, b.fetchCountDist) << name;
        EXPECT_EQ(a.commonPrefix.length, b.commonPrefix.length) << name;
        EXPECT_EQ(a.commonPrefix.bits, b.commonPrefix.bits) << name;
        for (const auto &[x, y] : {std::pair{a.dualNoPrefix, b.dualNoPrefix},
                                   std::pair{a.dualWithPrefix,
                                             b.dualWithPrefix}}) {
            EXPECT_EQ(x.nc, y.nc) << name;
            EXPECT_EQ(x.tc, y.tc) << name;
            EXPECT_EQ(x.nf, y.nf) << name;
        }
        EXPECT_EQ(a.etPositions.size(), et::ProfileConfig{}.maxPairs)
            << name;
    }
}

/** Every dram.* counter and histogram of @p snap, flattened. */
std::map<std::string, std::vector<std::uint64_t>>
dramMetrics(const obs::Snapshot &snap)
{
    std::map<std::string, std::vector<std::uint64_t>> out;
    for (const auto &[name, v] : snap.counters)
        if (name.rfind("dram.", 0) == 0)
            out[name] = {v};
    for (const auto &[name, h] : snap.histograms) {
        if (name.rfind("dram.", 0) == 0) {
            out[name] = h.buckets;
            out[name].push_back(h.count);
            out[name].push_back(h.sum);
        }
    }
    return out;
}

/** Histogram @p name of @p b minus that of @p a, flattened. */
std::vector<std::uint64_t>
histogramDelta(const obs::Snapshot &a, const obs::Snapshot &b,
               const std::string &name)
{
    obs::HistogramData h = b.histograms.at(name);
    if (const auto it = a.histograms.find(name); it != a.histograms.end()) {
        for (std::size_t i = 0; i < h.buckets.size(); ++i)
            h.buckets[i] -= it->second.buckets[i];
        h.count -= it->second.count;
        h.sum -= it->second.sum;
    }
    h.buckets.push_back(h.count);
    h.buckets.push_back(h.sum);
    return h.buckets;
}

TEST(ParallelDeterminism, ConcurrentSessionsPublishOwnRecords)
{
    const auto &ds = dataset();
    const anns::HnswIndex idx(*ds.base, ds.metric(),
                              anns::HnswParams{16, 80, 42});
    et::ProfileConfig pc;
    pc.numSamples = 60;
    pc.maxPairs = 600;
    const et::EtProfile profile = et::buildProfile(*ds.base, ds.metric(), pc);
    std::vector<core::QueryTrace> traces;
    for (const auto &q : ds.queries)
        traces.push_back(core::traceHnswQuery(idx, q, 10, 48));
    core::SystemConfig cfg;
    cfg.design = core::Design::kNdpEtOpt;
    cfg.concurrentQueries = 4;

    obs::Registry &reg = obs::Registry::instance();
    const obs::Snapshot s0 = reg.snapshot();
    const TickDelta makespan =
        core::SystemModel(cfg, *ds.base, ds.metric(), &profile)
            .run(traces)
            .makespan;
    const obs::Snapshot s1 = reg.snapshot();
    const std::uint64_t serialReads = counterDelta(s0, s1, "dram.reads");
    ASSERT_GT(serialReads, 0u);

    // Halfway through each run, an event waits until the other run is
    // halfway too, snapshots the registry, and waits again so neither
    // run can end (and publish) before both have looked.
    struct Probe
    {
        std::barrier<> sync{2};
        std::map<std::string, std::vector<std::uint64_t>> before;
        std::atomic<int> unchanged{0};
    } probe;
    probe.before = dramMetrics(s1);
    auto session = [&] {
        core::SystemModel model(cfg, *ds.base, ds.metric(), &profile);
        Probe *p = &probe;
        model.eventQueue().schedule(Tick{} + makespan / 2, [p] {
            p->sync.arrive_and_wait();
            if (dramMetrics(obs::Registry::instance().snapshot()) ==
                p->before)
                p->unchanged.fetch_add(1);
            p->sync.arrive_and_wait();
        });
        (void)model.run(traces);
    };
    std::thread a(session);
    std::thread b(session);
    a.join();
    b.join();
    EXPECT_EQ(probe.unchanged.load(), 2)
        << "a snapshot saw dram.* of a run that had not ended";

    const obs::Snapshot s2 = reg.snapshot();
    EXPECT_EQ(s2.counters.at("dram.reads") - s1.counters.at("dram.reads"),
              2 * serialReads);
    std::vector<std::uint64_t> twice =
        histogramDelta(s0, s1, "ndp.task_latency_ps");
    for (auto &v : twice)
        v *= 2;
    EXPECT_EQ(histogramDelta(s1, s2, "ndp.task_latency_ps"), twice);
}

} // namespace
} // namespace ansmet
