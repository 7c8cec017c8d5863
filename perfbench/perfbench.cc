/**
 * @file
 * The repository's benchmark: one process runs one workload, checks
 * its outputs, and prints every metric by name with its unit. The last
 * line of standard output is one JSON object:
 *
 *     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Workloads (see README.md for why each was chosen):
 *   sweep  closed-loop replay of all 9 designs x 7 datasets (Fig. 6)
 *   serve  open-loop SIFT NDP-ETOpt serving: Poisson 0.5x and 0.9x of
 *          batch capacity, plus one bursty point
 *   build  20k-vector index construction on SIFT and GloVe, then one
 *          replay per dataset
 *
 * A run sets its inputs up several times (reporting the median
 * set-up time), then repeats the measured phase until --seconds is
 * spent. --trace 1 records one span per layer call and reports the
 * per-layer metrics instead of the end-to-end ones.
 *
 * Usage:
 *   ansmet_perfbench --workload sweep|serve|build --seed N
 *                    --seconds S --trace 0|1 [--trace-file PATH]
 *                    [--alter-accepted]
 *
 * --alter-accepted perturbs one design's accepted count before the
 * checks run; the self-test uses it to show the lossless check fires.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "anns/hnsw.h"
#include "common/prng.h"
#include "common/runtime/runtime.h"
#include "core/design.h"
#include "core/experiment.h"
#include "core/system.h"
#include "core/trace.h"
#include "et/profile.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "spans.h"

namespace {

using namespace ansmet;
using perfbench::Scope;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------------------
// Workload sizes.
// ----------------------------------------------------------------------

// A run sets up at least kMinSetupReps times, and more while the
// set-ups have taken under kSetupSeconds; it reports the median.
constexpr unsigned kMinSetupReps = 3;
constexpr unsigned kMaxSetupReps = 15;
constexpr double kSetupSeconds = 3.0;
constexpr double kWarmupSeconds = 1.5;
constexpr std::size_t kSlots = 16;     //!< SystemConfig::concurrentQueries
constexpr std::size_t kSweepVectors = 2000;  //!< ANSMET_SCALE=quick size
constexpr std::size_t kSweepQueries = 3 * kSlots;
constexpr unsigned kQuickEfConstruction = 60;
constexpr std::size_t kServeTraces = 256;
/** Per serve point: >= 10^4 completions leave >= 10 samples past p999. */
constexpr std::uint64_t kServeArrivals = 10240;
constexpr double kZipfAlpha = 1.2;
constexpr std::uint64_t kMinTailSamples = 10000;
/**
 * Closed-loop replays on serve run this many queries drawn by the
 * served popularity, so "batch capacity" is the capacity for the mix
 * actually served and 0.9x means 90% load whatever traces are hot.
 */
constexpr std::uint64_t kMixQueries = 1024;
/** Bursty point: burst periods the arrival span is sized to hold. */
constexpr double kBurstPeriods = 50.0;
constexpr std::size_t kBuildVectors = 20000;
constexpr std::size_t kBuildQueries = 8 * kSlots;
constexpr unsigned kBuildEfConstruction = 100;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += std::log(x);
    return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

/** Nearest-rank quantile, as serve::LatencyRecorder computes it. */
std::uint64_t
nearestRank(std::vector<std::uint64_t> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

// ----------------------------------------------------------------------
// Correctness checks and the digest of simulated results.
// ----------------------------------------------------------------------

/** Every check is one attempted operation; a false one has failed. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n",
                         what.c_str());
        }
    }
};

/** FNV-1a over the bit patterns of simulated statistics. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

void
digestRun(Digest &d, const core::RunStats &rs)
{
    d.add(std::uint64_t{rs.queries.size()});
    for (const core::QueryStats &q : rs.queries) {
        for (const std::uint64_t v :
             {q.start.raw(), q.end.raw(), q.traversal.raw(),
              q.offload.raw(), q.distComp.raw(), q.collect.raw(),
              q.comparisons, q.accepted, q.terminated, q.linesEffectual,
              q.linesIneffectual, q.backupLines, q.polls})
            d.add(v);
    }
    d.add(rs.makespan.raw());
    for (const double e : {rs.energy.actPreNj, rs.energy.rdWrCoreNj,
                           rs.energy.ioNj, rs.energy.refreshNj,
                           rs.energy.backgroundNj})
        d.add(e);
    d.add(rs.loadImbalance);
}

void
digestServe(Digest &d, const serve::ServeReport &r)
{
    for (const std::uint64_t v :
         {r.offered, r.admitted, r.dropped, r.completed,
          std::uint64_t{r.maxOccupiedQshrs}, r.makespan.raw()})
        d.add(v);
    for (const serve::ServedQuery &q : r.queries) {
        d.add(q.queryId);
        d.add(std::uint64_t{q.traceIdx});
        d.add(q.queueWait.raw());
    }
    for (unsigned ph = 0; ph < serve::kNumPhases; ++ph)
        for (const std::uint64_t v :
             r.latency.samples(static_cast<serve::Phase>(ph)))
            d.add(v);
    digestRun(d, r.run);
}

// Registry metrics the simulation writes on its event thread. The et.*
// counters are left out: fetch simulation runs on worker threads or
// inline depending on ANSMET_THREADS, so only RunStats carries ET.
const char *const kSimCounters[] = {
    "sim.events",         "dram.reads",           "dram.writes",
    "dram.row_activates", "dram.row_conflicts",   "dram.bus_transfers",
    "ndp.tasks_completed", "ndp.lines_fetched",   "ndp.backpressure_staged",
    "host.compute_cycles", "host.lines_read",     "host.cache_hits",
    "host.cache_misses",  "serve.admitted",       "serve.dropped",
};
const char *const kSimHistograms[] = {
    "dram.queue_latency_ps", "dram.queue_depth", "ndp.task_latency_ps",
    "ndp.task_lines",        "ndp.qshr_slot_occupancy",
};

std::uint64_t
counterDelta(const obs::Snapshot &a, const obs::Snapshot &b,
             const std::string &name)
{
    const auto ia = a.counters.find(name);
    const auto ib = b.counters.find(name);
    return (ib == b.counters.end() ? 0 : ib->second) -
           (ia == a.counters.end() ? 0 : ia->second);
}

/** Registry change over a stretch in which no layer call was running. */
struct RegistryDelta
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, obs::HistogramData> histograms;

    static RegistryDelta
    between(const obs::Snapshot &a, const obs::Snapshot &b)
    {
        RegistryDelta d;
        for (const char *name : kSimCounters)
            d.counters[name] = counterDelta(a, b, name);
        for (const char *name : kSimHistograms) {
            obs::HistogramData h;
            const auto ib = b.histograms.find(name);
            if (ib != b.histograms.end())
                h = ib->second;
            const auto ia = a.histograms.find(name);
            if (ia != a.histograms.end()) {
                for (std::size_t i = 0; i < h.buckets.size() &&
                                        i < ia->second.buckets.size();
                     ++i)
                    h.buckets[i] -= ia->second.buckets[i];
                h.count -= ia->second.count;
                h.sum -= ia->second.sum;
            }
            d.histograms[name] = h;
        }
        return d;
    }

    void
    digest(Digest &dg) const
    {
        for (const auto &[name, v] : counters)
            dg.add(v);
        for (const auto &[name, h] : histograms) {
            for (const std::uint64_t b : h.buckets)
                dg.add(b);
            dg.add(h.count);
            dg.add(h.sum);
        }
    }
};

// ----------------------------------------------------------------------
// Inputs: the stages of core::ExperimentContext, called one layer at a
// time so each gets its own span. Nothing is read from or written to
// the on-disk graph cache: every set-up builds its index.
// ----------------------------------------------------------------------

struct Input
{
    core::ExperimentConfig cfg;
    anns::Dataset ds;
    std::unique_ptr<anns::HnswIndex> index;
    et::EtProfile profile;
    std::vector<std::vector<anns::Neighbor>> gt;
    std::size_t ef = 0;
    double recall = 0.0;
    std::vector<core::QueryTrace> traces;
    std::vector<VectorId> hot;
    /** serve: traces in the order the served popularity draws them. */
    std::vector<core::QueryTrace> mix;

    /** What the closed-loop replays run: the served mix, if any. */
    const std::vector<core::QueryTrace> &
    batch() const
    {
        return mix.empty() ? traces : mix;
    }
};

/**
 * runtime::parallelFor under a "runtime.parallel_for" span, with one
 * span per chunk on whichever thread runs it. The runtime's own self
 * time is then the part of the call no chunk covers: dispatch, wake-up
 * and the tail where lanes sit idle.
 */
template <class Body>
void
parallelChunks(Tracer &tr, const char *chunk, const char *layer,
               std::size_t n, const Body &body)
{
    const Scope pf(tr, "runtime.parallel_for", "runtime");
    const int parent = pf.id();
    runtime::parallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
        const std::uint32_t w = runtime::Runtime::currentWorker();
        const Scope c(tr, chunk, layer, parent,
                      w == runtime::kAnyLane ? 0 : w + 1);
        body(lo, hi);
    });
}

/** Mean recall@k of every query searched at @p ef. */
double
recallAt(const Input &in, std::size_t ef, Tracer &tr)
{
    const std::size_t nq = in.ds.queries.size();
    const std::size_t k = in.cfg.k;
    std::vector<double> per(nq);
    parallelChunks(tr, "anns.search", "anns", nq,
                   [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t q = lo; q < hi; ++q) {
                           per[q] = anns::recallAtK(
                               in.index->search(in.ds.queries[q].data(), k,
                                                ef),
                               in.gt[q], k);
                       }
                   });
    // Reduced in query order, so the sum is the same on any lane count.
    return std::accumulate(per.begin(), per.end(), 0.0) /
           static_cast<double>(nq);
}

/**
 * ExperimentContext's doubling search for the first efSearch that
 * reaches the recall target, then bisection down to the smallest one
 * that does. Doubling alone makes the work of a run jump by 2x when a
 * new seed tips one dataset over a power of two; the smallest passing
 * efSearch moves with the seed by a few percent.
 */
std::size_t
tuneEf(const Input &in, Tracer &tr)
{
    const std::size_t k = in.cfg.k;
    std::size_t lo = k - 1; // largest efSearch known to miss (or < k)
    std::size_t hi = 0;
    for (std::size_t ef = std::max<std::size_t>(k, 10); ef <= 5120; ef *= 2) {
        if (recallAt(in, ef, tr) >= in.cfg.targetRecall) {
            hi = ef;
            break;
        }
        lo = ef;
    }
    if (hi == 0)
        return 5120; // the recall check reports the miss
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (recallAt(in, mid, tr) >= in.cfg.targetRecall)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

std::unique_ptr<Input>
prepare(const core::ExperimentConfig &cfg, Tracer &tr)
{
    auto in = std::make_unique<Input>();
    in->cfg = cfg;
    {
        const Scope s(tr, "anns.dataset", "anns");
        in->ds = anns::makeDataset(cfg.dataset, cfg.numVectors,
                                   cfg.numQueries, cfg.seed, cfg.zipfAlpha);
    }
    const anns::VectorSet &base = *in->ds.base;
    const anns::Metric metric = in->ds.metric();
    {
        const Scope s(tr, "anns.hnsw_build", "anns");
        in->index = std::make_unique<anns::HnswIndex>(base, metric, cfg.hnsw);
    }
    {
        const Scope s(tr, "et.profile", "et");
        in->profile = et::buildProfile(base, metric, cfg.profile);
    }
    {
        const Scope s(tr, "anns.groundtruth", "anns");
        in->gt = anns::bruteForceAll(metric, in->ds.queries, base, cfg.k);
    }
    {
        const Scope s(tr, "anns.ef_tune", "anns");
        in->ef = tuneEf(*in, tr);
    }
    {
        const Scope s(tr, "core.trace", "core");
        const std::size_t nq = in->ds.queries.size();
        const std::size_t ef = std::max(in->ef, cfg.k);
        in->traces.resize(nq);
        std::vector<double> per(nq);
        parallelChunks(tr, "core.trace_query", "core", nq,
                       [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t q = lo; q < hi; ++q) {
                               in->traces[q] = core::traceHnswQuery(
                                   *in->index, in->ds.queries[q], cfg.k, ef);
                               per[q] = anns::recallAtK(in->traces[q].result,
                                                        in->gt[q], cfg.k);
                           }
                       });
        in->recall = std::accumulate(per.begin(), per.end(), 0.0) /
                     static_cast<double>(nq);
    }
    {
        // The replicated hot set: the HNSW top four layers (Sec. 5.3).
        const Scope s(tr, "anns.hot_vectors", "anns");
        const unsigned top = in->index->maxLevel();
        in->hot = in->index->verticesAtLevel(top >= 3 ? top - 3 : 1);
    }
    return in;
}

core::SystemConfig
systemConfig(const Input &in, core::Design d)
{
    core::SystemConfig sc;
    sc.design = d;
    sc.concurrentQueries = kSlots;
    core::scaleCachesToDataset(sc, in.ds.base->size() *
                                       in.ds.base->vectorBytes());
    return sc;
}

std::unique_ptr<core::SystemModel>
makeModel(const Input &in, core::Design d, Tracer &tr)
{
    const Scope s(tr, "core.model_init", "core");
    return std::make_unique<core::SystemModel>(systemConfig(in, d),
                                               *in.ds.base, in.ds.metric(),
                                               &in.profile, in.hot);
}

void
freeModel(std::unique_ptr<core::SystemModel> &model, Tracer &tr)
{
    const Scope s(tr, "core.model_free", "core");
    model.reset();
}

// ----------------------------------------------------------------------
// Serving.
// ----------------------------------------------------------------------

struct ServePoint
{
    const char *label;
    double loadFactor; //!< offered rate / closed-loop batch capacity
    serve::ArrivalProcess process;
};

constexpr ServePoint kServePoints[] = {
    {"poisson-0.5x", 0.5, serve::ArrivalProcess::kPoisson},
    {"poisson-0.9x", 0.9, serve::ArrivalProcess::kPoisson},
    {"bursty-0.5x", 0.5, serve::ArrivalProcess::kBursty},
};
constexpr std::size_t kTailPoint = 1; //!< the 0.9x Poisson point

serve::ServeConfig
serveConfig(const ServePoint &p, double capacity, std::size_t traces,
            std::uint64_t seed)
{
    serve::ServeConfig cfg;
    cfg.load.offeredQps = capacity * p.loadFactor;
    cfg.load.numQueries = kServeArrivals;
    cfg.load.numTraces = traces;
    cfg.load.process = p.process;
    cfg.load.zipfAlpha = kZipfAlpha;
    cfg.load.seed = seed;
    cfg.queueCapacity = 64;
    if (p.process == serve::ArrivalProcess::kBursty) {
        // The default 2 ms burst dwell (18 ms quiet) exceeds the whole
        // schedule at MHz simulated rates, so the run never leaves the
        // quiet state. Size the dwell so the expected span of the
        // schedule holds kBurstPeriods burst-plus-quiet periods.
        const double span_ns = static_cast<double>(kServeArrivals) /
                               cfg.load.offeredQps * 1e9;
        cfg.load.meanBurstNs =
            span_ns * cfg.load.burstFraction / kBurstPeriods;
    }
    return cfg;
}

struct BurstStats
{
    std::uint64_t bursts = 0;          //!< burst periods begun by the end
    std::uint64_t arrivalsInBursts = 0;
};

/**
 * Burst periods of a bursty schedule. This replays the modulation
 * stream of serve::generateArrivals() (Prng::stream(seed, 2), drawn in
 * the same order), whose state boundaries depend on no arrival draw.
 * The share of arrivals that fall inside the recovered bursts, about
 * burstFactor * burstFraction, is checked, so a drift between this
 * copy and the generator shows up as a failed check.
 */
BurstStats
burstStats(const serve::LoadGenConfig &cfg,
           const std::vector<serve::Arrival> &arrivals)
{
    BurstStats out;
    if (arrivals.empty())
        return out;
    Prng modulation = Prng::stream(cfg.seed, 2);
    auto dwell = [&](double mean_ticks) {
        double u = modulation.uniform();
        if (u < 1e-300)
            u = 1e-300;
        return static_cast<std::uint64_t>(
            std::max(1.0, std::round(-std::log(u) * mean_ticks)));
    };
    const double high = cfg.meanBurstNs *
                        static_cast<double>(kTicksPerNs.raw());
    const double low = high * (1.0 - cfg.burstFraction) / cfg.burstFraction;
    const std::uint64_t last = arrivals.back().at.raw();
    std::uint64_t start = 0;
    std::uint64_t end = dwell(low);
    bool bursting = false;
    std::size_t i = 0;
    while (start < last) {
        // A state owns the arrivals in (start, end].
        std::uint64_t n = 0;
        for (; i < arrivals.size() && arrivals[i].at.raw() <= end; ++i)
            ++n;
        if (bursting) {
            ++out.bursts;
            out.arrivalsInBursts += n;
        }
        bursting = !bursting;
        start = end;
        end = start + dwell(bursting ? high : low);
    }
    return out;
}

// ----------------------------------------------------------------------
// Workloads.
// ----------------------------------------------------------------------

enum class WorkloadId { kSweep, kServe, kBuild };

struct WorkloadSpec
{
    std::vector<core::ExperimentConfig> inputs;
    std::vector<core::Design> designs; //!< replayed closed-loop per input
    bool serve = false;                //!< serve points on inputs[0]
};

WorkloadSpec
workloadSpec(WorkloadId w, std::uint64_t seed)
{
    auto config = [&](anns::DatasetId id, std::size_t n, std::size_t q,
                      unsigned efc) {
        core::ExperimentConfig c;
        c.dataset = id;
        c.numVectors = n;
        c.numQueries = q;
        c.k = 10;
        c.seed = seed;
        c.hnsw.efConstruction = efc;
        return c;
    };
    WorkloadSpec s;
    const std::vector<core::Design> pair = {core::Design::kCpuBase,
                                            core::Design::kNdpEtOpt};
    switch (w) {
    case WorkloadId::kSweep:
        for (const anns::DatasetId id : anns::allDatasets())
            s.inputs.push_back(config(id, kSweepVectors, kSweepQueries,
                                      kQuickEfConstruction));
        s.designs = core::allDesigns();
        break;
    case WorkloadId::kServe:
        s.inputs.push_back(config(anns::DatasetId::kSift, kSweepVectors,
                                  kServeTraces, kQuickEfConstruction));
        s.designs = pair;
        s.serve = true;
        break;
    case WorkloadId::kBuild:
        for (const anns::DatasetId id :
             {anns::DatasetId::kSift, anns::DatasetId::kGlove})
            s.inputs.push_back(config(id, kBuildVectors, kBuildQueries,
                                      kBuildEfConstruction));
        s.designs = pair;
        break;
    }
    return s;
}

/** The simulated outcome of one measured iteration. */
struct Outcome
{
    std::map<std::string, double> sim; //!< simulated metrics by name
    std::uint64_t digest = 0;
};

struct Replay
{
    std::size_t input;
    core::Design design;
    core::RunStats rs;
};

/**
 * Lossless ET: every design must see the same comparisons and accept
 * the same vectors on one input, and both must match the traces.
 */
void
checkLossless(const std::vector<Replay> &replays,
              const std::vector<std::unique_ptr<Input>> &inputs,
              Checks &checks)
{
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::uint64_t comps = 0;
        std::uint64_t acc = 0;
        for (const core::QueryTrace &t : inputs[i]->batch()) {
            comps += t.numComparisons();
            acc += t.numAccepted();
        }
        const std::string ds = inputs[i]->ds.spec.name;
        for (const Replay &r : replays) {
            if (r.input != i)
                continue;
            const core::QueryStats tot = r.rs.totals();
            const std::string at = ds + "/" + core::designName(r.design);
            checks.expect(r.rs.queries.size() == inputs[i]->batch().size(),
                          at + ": every query completes");
            checks.expect(tot.comparisons == comps,
                          at + ": comparisons match the traces (" +
                              std::to_string(tot.comparisons) + " vs " +
                              std::to_string(comps) + ")");
            checks.expect(tot.accepted == acc,
                          at + ": accepted matches the traces (" +
                              std::to_string(tot.accepted) + " vs " +
                              std::to_string(acc) + ")");
        }
    }
}

class Bench
{
  public:
    Bench(WorkloadId w, std::uint64_t seed, bool alter_accepted,
          Tracer &tr, Checks &checks)
        : spec_(workloadSpec(w, seed)), seed_(seed),
          alter_accepted_(alter_accepted), tr_(tr), checks_(checks)
    {
    }

    /** Build every input from scratch, replacing the previous set. */
    void
    setup()
    {
        inputs_.clear();
        distance_comps_ = 0;
        for (const core::ExperimentConfig &cfg : spec_.inputs) {
            const obs::Snapshot before = obs::Registry::instance().snapshot();
            inputs_.push_back(prepare(cfg, tr_));
            const obs::Snapshot after = obs::Registry::instance().snapshot();
            distance_comps_ += counterDelta(before, after,
                                            "hnsw.distance_comps");
        }
        if (spec_.serve) {
            Input &in = *inputs_.front();
            const Scope s(tr_, "serve.mix", "serve");
            serve::LoadGenConfig lg;
            lg.numQueries = kMixQueries;
            lg.numTraces = in.traces.size();
            lg.zipfAlpha = kZipfAlpha;
            lg.seed = seed_;
            // Popularity has its own Prng stream: the draws do not
            // depend on the rate, so these are the served draws.
            for (const serve::Arrival &a : serve::generateArrivals(lg))
                in.mix.push_back(in.traces[a.traceIdx]);
        }
        ++setups_;
        Digest d;
        for (const auto &in : inputs_) {
            checks_.expect(in->recall >= in->cfg.targetRecall,
                           in->ds.spec.name + ": recall " +
                               std::to_string(in->recall) + " >= " +
                               std::to_string(in->cfg.targetRecall));
            d.add(std::uint64_t{in->ef});
            d.add(in->recall);
            for (const core::QueryTrace &t : in->traces) {
                d.add(std::uint64_t{t.numComparisons()});
                d.add(std::uint64_t{t.numAccepted()});
            }
        }
        if (setups_ > 1)
            checks_.expect(d.h == setup_digest_,
                           "set-up repeats: same efSearch, recall, traces");
        setup_digest_ = d.h;
    }

    /** One measured iteration over the prepared inputs. */
    Outcome
    iterate()
    {
        const obs::Snapshot before = obs::Registry::instance().snapshot();
        std::vector<Replay> replays;
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            for (const core::Design d : spec_.designs) {
                auto model = makeModel(*inputs_[i], d, tr_);
                core::RunStats rs;
                {
                    const Scope s(tr_, "core.replay", "core");
                    rs = model->run(inputs_[i]->batch());
                }
                freeModel(model, tr_);
                replays.push_back(Replay{i, d, std::move(rs)});
            }
        }
        std::vector<serve::ServeReport> reports;
        std::vector<BurstStats> bursts;
        if (spec_.serve)
            servePoints(replays, reports, bursts);
        // Read only now: every layer call, and every worker it fanned
        // out to, has returned, so no histogram is mid-update.
        const obs::Snapshot after = obs::Registry::instance().snapshot();
        const RegistryDelta delta = RegistryDelta::between(before, after);

        if (alter_accepted_ && !replays.empty())
            replays.back().rs.queries.front().accepted += 1;
        checkLossless(replays, inputs_, checks_);
        return summarize(replays, reports, bursts, delta);
    }

    /**
     * Single-thread FetchSimulator::simulateRange over every comparison
     * the workload replays, per design, over the dimension ranges the
     * replay uses (the rank-group split of partitioner()->placement(0,
     * 0) for NDP designs, the whole vector for CPU designs).
     */
    void
    fetchPass(double &seconds, std::uint64_t &calls)
    {
        for (const auto &in : inputs_) {
            for (const core::Design d : spec_.designs) {
                auto model = makeModel(*in, d, tr_);
                const et::FetchSimulator &fs = model->fetchSimulator();
                std::vector<std::pair<unsigned, unsigned>> ranges;
                if (core::isNdp(d) && model->partitioner() != nullptr) {
                    for (const auto &sv : model->partitioner()->placement(0, 0))
                        ranges.emplace_back(sv.dimBegin, sv.dimEnd);
                } else {
                    ranges.emplace_back(0, in->ds.base->dims());
                }
                for (const auto &[b, e] : ranges)
                    (void)fs.subPlan(e - b);
                const Scope s(tr_, "et.fetchsim", "et");
                const auto t0 = Clock::now();
                std::uint64_t lines = 0;
                for (const core::QueryTrace &tr : in->traces)
                    for (const core::TraceStep &st : tr.steps)
                        for (const core::CompareTask &t : st.tasks)
                            for (const auto &[b, e] : ranges) {
                                lines += fs.simulateRange(tr.query.data(),
                                                          t.vec, t.threshold,
                                                          b, e)
                                             .totalLines();
                                ++calls;
                            }
                seconds += secondsSince(t0);
                checks_.expect(lines > 0, in->ds.spec.name + "/" +
                                              core::designName(d) +
                                              ": fetch pass fetched lines");
                freeModel(model, tr_);
            }
        }
    }

    /** One line per input: its tuned efSearch, recall and size. */
    void
    describeInputs() const
    {
        for (const auto &in : inputs_) {
            std::size_t comps = 0;
            for (const core::QueryTrace &t : in->batch())
                comps += t.numComparisons();
            std::fprintf(stderr,
                         "[perfbench] input %-8s n=%zu queries=%zu ef=%zu "
                         "recall=%.4f replayed comparisons=%zu\n",
                         in->ds.spec.name.c_str(), in->ds.base->size(),
                         in->batch().size(), in->ef, in->recall, comps);
        }
    }

    double
    meanRecall() const
    {
        double s = 0.0;
        for (const auto &in : inputs_)
            s += in->recall;
        return s / static_cast<double>(inputs_.size());
    }

    /** hnsw.distance_comps of the last set-up. */
    double
    distanceComps() const
    {
        return static_cast<double>(distance_comps_);
    }

  private:
    void
    servePoints(const std::vector<Replay> &replays,
                std::vector<serve::ServeReport> &reports,
                std::vector<BurstStats> &bursts)
    {
        const Input &in = *inputs_.front();
        double capacity = 0.0;
        for (const Replay &r : replays)
            if (r.input == 0 && r.design == core::Design::kNdpEtOpt)
                capacity = r.rs.qps();
        for (const ServePoint &p : kServePoints) {
            const serve::ServeConfig cfg =
                serveConfig(p, capacity, in.traces.size(), seed_);
            std::vector<serve::Arrival> arrivals;
            {
                // serve() regenerates this same schedule (a pure
                // function of the config) before its first event, so
                // arrivals sit at fixed simulated ticks and the
                // generator can never run late.
                const Scope s(tr_, "serve.loadgen", "serve");
                arrivals = serve::generateArrivals(cfg.load);
            }
            auto model = makeModel(in, core::Design::kNdpEtOpt, tr_);
            {
                const Scope s(tr_, "serve.serve", "serve");
                reports.push_back(serve::serve(*model, in.traces, cfg));
            }
            freeModel(model, tr_);
            const serve::ServeReport &r = reports.back();
            const std::string at = std::string("serve ") + p.label;
            checks_.expect(r.offered == arrivals.size() &&
                               r.offered == kServeArrivals,
                           at + ": offered == generated arrivals");
            checks_.expect(r.offered == r.completed + r.dropped,
                           at + ": offered == completed + dropped (" +
                               std::to_string(r.offered) + " vs " +
                               std::to_string(r.completed) + " + " +
                               std::to_string(r.dropped) + ")");
            if (p.process == serve::ArrivalProcess::kBursty) {
                const BurstStats b = burstStats(cfg.load, arrivals);
                const double share = static_cast<double>(b.arrivalsInBursts) /
                                     static_cast<double>(arrivals.size());
                const double expect =
                    cfg.load.burstFactor * cfg.load.burstFraction;
                checks_.expect(b.bursts >= kBurstPeriods / 2,
                               at + ": schedule spans many bursts (" +
                                   std::to_string(b.bursts) + ")");
                checks_.expect(std::abs(share - expect) < 0.15,
                               at + ": share of arrivals in bursts " +
                                   std::to_string(share) + " near " +
                                   std::to_string(expect));
                bursts.push_back(b);
            }
        }
        checks_.expect(reports[kTailPoint].completed >= kMinTailSamples,
                       "serve: p999 has at least 10 samples beyond it");
    }

    Outcome
    summarize(const std::vector<Replay> &replays,
              const std::vector<serve::ServeReport> &reports,
              const std::vector<BurstStats> &bursts,
              const RegistryDelta &delta)
    {
        Outcome o;
        Digest dg;
        std::vector<double> opt_qps;
        std::vector<double> speedup;
        std::vector<double> util;
        std::vector<double> p99;
        std::vector<double> p999;
        double imbalance = 0.0;
        std::uint64_t comps = 0;
        std::uint64_t terms = 0;
        for (const Replay &r : replays) {
            digestRun(dg, r.rs);
            if (r.design != core::Design::kNdpEtOpt)
                continue;
            double base_qps = 0.0;
            for (const Replay &b : replays)
                if (b.input == r.input && b.design == core::Design::kCpuBase)
                    base_qps = b.rs.qps();
            opt_qps.push_back(r.rs.qps());
            speedup.push_back(r.rs.qps() / base_qps);
            const core::QueryStats t = r.rs.totals();
            // Fig. 10: lines of accepted vectors over all lines fetched.
            util.push_back(static_cast<double>(t.linesEffectual) /
                           static_cast<double>(r.rs.totalLines()));
            comps += t.comparisons;
            terms += t.terminated;
            imbalance += r.rs.loadImbalance;
            std::vector<std::uint64_t> lat;
            for (const core::QueryStats &q : r.rs.queries)
                lat.push_back(q.latency().raw());
            p99.push_back(1e-6 * static_cast<double>(nearestRank(lat, 0.99)));
            p999.push_back(1e-6 *
                           static_cast<double>(nearestRank(lat, 0.999)));
        }
        imbalance /= static_cast<double>(opt_qps.size());

        auto &m = o.sim;
        m["sim_speedup_geomean"] = geomean(speedup);
        m["et.termination_ratio"] =
            static_cast<double>(terms) / static_cast<double>(comps);
        m["et.fetch_utilization"] = geomean(util);
        m["serve.queue_wait_p99_us"] = 0.0;
        m["serve.drop_frac"] = 0.0;
        m["serve.max_occupied_qshrs"] = 0.0;
        m["serve.bursts"] = 0.0;
        if (reports.empty()) {
            // Closed loop: per input, like sim_qps, so the slowest
            // dataset does not set the whole tail.
            m["sim_qps"] = geomean(opt_qps);
            m["sim_p99_us"] = geomean(p99);
            m["sim_p999_us"] = geomean(p999);
            m["layout.load_imbalance"] = imbalance;
        } else {
            const serve::ServeReport &tail = reports[kTailPoint];
            m["sim_qps"] = tail.achievedQps();
            m["sim_p99_us"] = 1e-6 * static_cast<double>(
                tail.latency.exactQuantile(serve::Phase::kTotal, 0.99));
            m["sim_p999_us"] = 1e-6 * static_cast<double>(
                tail.latency.exactQuantile(serve::Phase::kTotal, 0.999));
            m["layout.load_imbalance"] = tail.run.loadImbalance;
            m["serve.queue_wait_p99_us"] =
                1e-6 * static_cast<double>(tail.latency.exactQuantile(
                           serve::Phase::kQueueWait, 0.99));
            std::uint64_t offered = 0;
            std::uint64_t dropped = 0;
            unsigned occupied = 0;
            for (const serve::ServeReport &r : reports) {
                digestServe(dg, r);
                offered += r.offered;
                dropped += r.dropped;
                occupied = std::max(occupied, r.maxOccupiedQshrs);
            }
            m["serve.drop_frac"] =
                static_cast<double>(dropped) / static_cast<double>(offered);
            m["serve.max_occupied_qshrs"] = occupied;
            for (const BurstStats &b : bursts)
                m["serve.bursts"] += static_cast<double>(b.bursts);
        }

        const auto &c = delta.counters;
        const auto &h = delta.histograms;
        m["sim.events"] = static_cast<double>(c.at("sim.events"));
        m["dram.row_conflicts"] =
            static_cast<double>(c.at("dram.row_conflicts"));
        m["dram.queue_latency_p99_ps"] = static_cast<double>(
            h.at("dram.queue_latency_ps").quantile(0.99));
        m["ndp.tasks_completed"] =
            static_cast<double>(c.at("ndp.tasks_completed"));
        m["ndp.task_latency_p99_ps"] = static_cast<double>(
            h.at("ndp.task_latency_ps").quantile(0.99));
        const double hits = static_cast<double>(c.at("host.cache_hits"));
        const double misses = static_cast<double>(c.at("host.cache_misses"));
        m["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
        delta.digest(dg);
        o.digest = dg.h;
        return o;
    }

    const WorkloadSpec spec_;
    const std::uint64_t seed_;
    const bool alter_accepted_;
    Tracer &tr_;
    Checks &checks_;
    std::vector<std::unique_ptr<Input>> inputs_;
    unsigned setups_ = 0;
    std::uint64_t distance_comps_ = 0;
    std::uint64_t setup_digest_ = 0;
};

// ----------------------------------------------------------------------
// Metric report.
// ----------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += checks.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted);
    out += ", \"failed\": " + std::to_string(checks.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

struct Options
{
    WorkloadId workload = WorkloadId::kSweep;
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceFile;
    bool alterAccepted = false;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--alter-accepted") {
            o.alterAccepted = true;
        } else if (!has_value) {
            return false;
        } else if (a == "--workload") {
            o.workloadName = argv[++i];
            if (o.workloadName == "sweep")
                o.workload = WorkloadId::kSweep;
            else if (o.workloadName == "serve")
                o.workload = WorkloadId::kServe;
            else if (o.workloadName == "build")
                o.workload = WorkloadId::kBuild;
            else
                return false;
        } else if (a == "--seed") {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            o.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--trace-file") {
            o.traceFile = argv[++i];
        } else {
            return false;
        }
    }
    return !o.workloadName.empty() && o.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload sweep|serve|build --seed N "
                     "--seconds S --trace 0|1 [--trace-file PATH] "
                     "[--alter-accepted]\n",
                     argv[0]);
        return 2;
    }

    Tracer tr(opt.trace, opt.seed);
    Checks checks;
    Bench bench(opt.workload, opt.seed, opt.alterAccepted, tr, checks);
    {
        const Scope s(tr, "bench.init", "bench");
        const Scope r(tr, "runtime.init", "runtime");
        (void)runtime::Runtime::global();
    }

    // Warm-up: untimed set-ups for the first kWarmupSeconds. A process
    // that starts on an idle machine runs its first second or so up to
    // 3x slower, which would otherwise land in the first set-ups.
    tr.setEnabled(false);
    for (const auto w0 = Clock::now(); secondsSince(w0) < kWarmupSeconds;)
        bench.setup();
    tr.setEnabled(opt.trace);

    // Set-up, several times over; the last inputs are kept.
    std::vector<double> setup_s;
    std::vector<int> setup_roots;
    const double setup_cpu0 = cpuSeconds();
    const auto setup_t0 = Clock::now();
    for (unsigned rep = 0;
         rep < kMinSetupReps ||
         (rep < kMaxSetupReps && secondsSince(setup_t0) < kSetupSeconds);
         ++rep) {
        const auto t0 = Clock::now();
        {
            const Scope root(tr, "bench.setup", "bench");
            setup_roots.push_back(root.id());
            bench.setup();
        }
        setup_s.push_back(secondsSince(t0));
    }
    const double setup_cpu_per_wall =
        (cpuSeconds() - setup_cpu0) / secondsSince(setup_t0);

    // Measured phase: whole iterations until the next would overrun
    // --seconds. A traced run alternates untraced and traced
    // iterations, so the tracing overhead is measured in one process.
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::vector<int> run_roots;
    Outcome first;
    const double run_cpu0 = cpuSeconds();
    const auto run_t0 = Clock::now();
    for (unsigned it = 0;; ++it) {
        const bool traced = opt.trace && it % 2 == 1;
        tr.setEnabled(traced);
        const auto t0 = Clock::now();
        Outcome o;
        {
            const Scope root(tr, "bench.run", "bench");
            if (traced)
                run_roots.push_back(root.id());
            o = bench.iterate();
        }
        (traced ? traced_s : untraced_s).push_back(secondsSince(t0));
        if (it == 0)
            first = o;
        else
            checks.expect(o.digest == first.digest,
                          "iteration " + std::to_string(it) +
                              " repeats the simulated results exactly");
        const double elapsed = secondsSince(run_t0);
        const double next = median(traced ? traced_s : untraced_s);
        const bool need_traced = opt.trace && traced_s.empty();
        if (!need_traced && elapsed + next > opt.seconds)
            break;
    }
    const double run_wall = secondsSince(run_t0);
    const double run_cpu_per_wall = (cpuSeconds() - run_cpu0) / run_wall;
    tr.setEnabled(opt.trace);

    double fetch_s = 0.0;
    std::uint64_t fetch_calls = 0;
    if (opt.trace) {
        const Scope root(tr, "bench.fetch_pass", "bench");
        bench.fetchPass(fetch_s, fetch_calls);
    }

    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(first.digest));
    std::printf("digest %s seed=%llu: %s\n", opt.workloadName.c_str(),
                static_cast<unsigned long long>(opt.seed), digest);

    const auto &sim = first.sim;
    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", "s", median(setup_s)},
            {"run_s", "s", median(untraced_s)},
            {"peak_rss_mb", "MiB", peakRssMb()},
            {"sim_qps", "1/s", sim.at("sim_qps")},
            {"sim_speedup_geomean", "x", sim.at("sim_speedup_geomean")},
            {"sim_p99_us", "us", sim.at("sim_p99_us")},
            {"sim_p999_us", "us", sim.at("sim_p999_us")},
            {"recall", "ratio", bench.meanRecall()},
        };
    } else {
        const std::vector<perfbench::Span> &spans = tr.spans();
        // Median over the roots of the summed time of spans @p name.
        auto medianSum = [&](const std::vector<int> &roots,
                             const char *name) {
            std::vector<double> v;
            for (const int r : roots) {
                const auto d = perfbench::durationsUnder(spans, r, name);
                v.push_back(std::accumulate(d.begin(), d.end(), 0.0));
            }
            return median(v);
        };
        auto setupMedian = [&](const char *name) {
            return medianSum(setup_roots, name);
        };
        auto runMedian = [&](const char *name) {
            return medianSum(run_roots, name);
        };
        std::vector<double> p50;
        std::vector<double> pmax;
        for (const int r : run_roots) {
            const auto d = perfbench::durationsUnder(spans, r, "core.replay");
            p50.push_back(median(d));
            pmax.push_back(d.empty() ? 0.0
                                     : *std::max_element(d.begin(), d.end()));
        }
        // Self time of one set-up plus one measured iteration.
        std::map<std::string, double> self;
        for (const auto &[layer, t] :
             perfbench::selfTimeByLayer(spans, setup_roots))
            self[layer] += t / static_cast<double>(setup_roots.size());
        for (const auto &[layer, t] :
             perfbench::selfTimeByLayer(spans, run_roots))
            self[layer] += t / static_cast<double>(run_roots.size());
        double setup_cov = 1.0;
        double run_cov = 1.0;
        for (const int r : setup_roots)
            setup_cov = std::min(setup_cov, perfbench::layerCoverage(spans, r));
        for (const int r : run_roots)
            run_cov = std::min(run_cov, perfbench::layerCoverage(spans, r));
        checks.expect(setup_cov >= 0.9 && run_cov >= 0.9,
                      "spans cover at least 90% of set-up and run time");

        const double replay_s = runMedian("core.replay");
        const double serve_s = runMedian("serve.serve");
        const double events = sim.at("sim.events");
        metrics = {
            {"et.fetchsim_s", "s", fetch_s},
            {"et.fetchsim_ns_per_call", "ns",
             fetch_calls ? fetch_s * 1e9 / static_cast<double>(fetch_calls)
                         : 0.0},
            {"et.fetchsim_calls", "count", static_cast<double>(fetch_calls)},
            {"et.profile_s", "s", setupMedian("et.profile")},
            {"anns.dataset_s", "s", setupMedian("anns.dataset")},
            {"anns.hnsw_build_s", "s", setupMedian("anns.hnsw_build")},
            {"anns.groundtruth_s", "s", setupMedian("anns.groundtruth")},
            {"anns.ef_tune_s", "s", setupMedian("anns.ef_tune")},
            {"core.trace_s", "s", setupMedian("core.trace")},
            {"anns.distance_comps", "count", bench.distanceComps()},
            {"core.model_init_s", "s", runMedian("core.model_init")},
            {"core.replay_s", "s", replay_s},
            {"core.replay_point_p50_s", "s", median(p50)},
            {"core.replay_point_max_s", "s", median(pmax)},
            {"sim.events", "count", events},
            {"core.host_ns_per_event", "ns",
             events > 0 ? (replay_s + serve_s) * 1e9 / events : 0.0},
            {"runtime.cpu_per_wall", "ratio", run_cpu_per_wall},
            {"runtime.setup_cpu_per_wall", "ratio", setup_cpu_per_wall},
            {"serve.loadgen_s", "s", runMedian("serve.loadgen")},
            {"serve.serve_s", "s", serve_s},
            {"et.termination_ratio", "ratio", sim.at("et.termination_ratio")},
            {"et.fetch_utilization", "ratio",
             sim.at("et.fetch_utilization")},
            {"dram.row_conflicts", "count", sim.at("dram.row_conflicts")},
            {"dram.queue_latency_p99_ps", "ps",
             sim.at("dram.queue_latency_p99_ps")},
            {"ndp.tasks_completed", "count", sim.at("ndp.tasks_completed")},
            {"ndp.task_latency_p99_ps", "ps",
             sim.at("ndp.task_latency_p99_ps")},
            {"cache.hit_ratio", "ratio", sim.at("cache.hit_ratio")},
            {"layout.load_imbalance", "ratio",
             sim.at("layout.load_imbalance")},
            {"serve.queue_wait_p99_us", "us",
             sim.at("serve.queue_wait_p99_us")},
            {"serve.drop_frac", "ratio", sim.at("serve.drop_frac")},
            {"serve.max_occupied_qshrs", "count",
             sim.at("serve.max_occupied_qshrs")},
            {"serve.bursts", "count", sim.at("serve.bursts")},
        };
        for (const char *layer :
             {"anns", "et", "core", "serve", "runtime", "bench"})
            metrics.push_back({std::string("self.") + layer + "_s", "s",
                               self[layer]});
        metrics.push_back({"trace.overhead_s", "s",
                           median(traced_s) - median(untraced_s)});
        metrics.push_back({"trace.setup_coverage", "ratio", setup_cov});
        metrics.push_back({"trace.run_coverage", "ratio", run_cov});
        metrics.push_back({"trace.spans", "count",
                           static_cast<double>(spans.size())});
        if (!opt.traceFile.empty() && !tr.write(opt.traceFile))
            std::fprintf(stderr, "[perfbench] cannot write %s\n",
                         opt.traceFile.c_str());
    }
    bench.describeInputs();
    std::fprintf(stderr, "[perfbench] set-up s:");
    for (const double t : setup_s)
        std::fprintf(stderr, " %.3f", t);
    std::fprintf(stderr, "; run s:");
    for (const double t : untraced_s)
        std::fprintf(stderr, " %.3f", t);
    std::fprintf(stderr, "; traced run s:");
    for (const double t : traced_s)
        std::fprintf(stderr, " %.3f", t);
    std::fprintf(stderr, "\n");
    for (const Metric &m : metrics) {
        checks.expect(std::isfinite(m.value), m.name + " is finite");
        std::fprintf(stderr, "[perfbench] %-28s %16.6g %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
    }
    std::fprintf(stderr,
                 "[perfbench] %s seed=%llu: %zu set-ups, %zu+%zu "
                 "iterations, %llu/%llu checks failed\n",
                 opt.workloadName.c_str(),
                 static_cast<unsigned long long>(opt.seed), setup_s.size(),
                 untraced_s.size(), traced_s.size(),
                 static_cast<unsigned long long>(checks.failed),
                 static_cast<unsigned long long>(checks.attempted));
    printResult(checks, metrics);
    return 0;
}
