/**
 * @file
 * Shared helpers for the experiment binaries in bench/.
 *
 * Each binary regenerates one table or figure of the paper. Scale
 * knobs (vector counts, query counts) default to values that finish
 * in minutes on one machine; set ANSMET_SCALE=large for a longer,
 * higher-fidelity run or ANSMET_SCALE=quick for smoke tests.
 */

#ifndef ANSMET_BENCH_BENCH_UTIL_H
#define ANSMET_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "common/table.h"
#include "common/runtime/runtime.h"
#include "core/experiment.h"
#include "obs/trace.h"

namespace ansmet::bench {

/** Workload scale selected via the ANSMET_SCALE environment variable. */
enum class Scale { kQuick, kDefault, kLarge };

inline Scale
scale()
{
    const char *env = std::getenv("ANSMET_SCALE");
    if (!env)
        return Scale::kDefault;
    const std::string s = env;
    if (s == "quick")
        return Scale::kQuick;
    if (s == "large")
        return Scale::kLarge;
    return Scale::kDefault;
}

/**
 * ANSMET_QUIET=1 silences progress chatter and the end-of-run timing
 * line, leaving only the reproduced table/figure on stdout — what the
 * CI output-comparison jobs diff.
 */
inline bool
quiet()
{
    const char *env = std::getenv("ANSMET_QUIET");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Standard experiment configuration for a dataset at the bench scale. */
inline core::ExperimentConfig
experimentConfig(anns::DatasetId id, std::size_t k = 10)
{
    core::ExperimentConfig cfg;
    cfg.dataset = id;
    cfg.k = k;
    switch (scale()) {
      case Scale::kQuick:
        cfg.numVectors = 2000;
        cfg.numQueries = 16;
        cfg.hnsw.efConstruction = 60;
        break;
      case Scale::kDefault:
        cfg.numVectors = id == anns::DatasetId::kGist ? 3000 : 6000;
        cfg.numQueries = 32;
        cfg.hnsw.efConstruction = 100;
        cfg.profile.maxPairs = 1500;
        break;
      case Scale::kLarge:
        cfg.numVectors = 0; // dataset default (20k / 8k GIST)
        cfg.numQueries = 100;
        cfg.hnsw.efConstruction = 200;
        break;
    }
    return cfg;
}

/**
 * Process-wide cache of experiment contexts so one binary can touch
 * the same dataset at several k values without rebuilding.
 */
inline const core::ExperimentContext &
context(anns::DatasetId id, std::size_t k = 10)
{
    static std::map<std::pair<int, std::size_t>,
                    std::unique_ptr<core::ExperimentContext>>
        cache;
    const auto key = std::make_pair(static_cast<int>(id), k);
    auto it = cache.find(key);
    if (it == cache.end()) {
        if (!quiet())
            std::fprintf(stderr, "[bench] preparing %s (k=%zu)...\n",
                         anns::datasetSpec(id).name.c_str(), k);
        it = cache
                 .emplace(key, std::make_unique<core::ExperimentContext>(
                                   experimentConfig(id, k)))
                 .first;
    }
    return *it->second;
}

/** Start of the process, for the end-of-run timing line. */
inline std::chrono::steady_clock::time_point &
processStart()
{
    static auto t0 = std::chrono::steady_clock::now();
    return t0;
}

/**
 * Banner identifying the reproduced table/figure. Also arms an atexit
 * hook that reports total wall-clock and the thread-pool width, so
 * every bench binary prints a comparable timing line — the number the
 * ANSMET_THREADS speedup is measured on.
 */
inline void
banner(const char *what, const char *paper_ref)
{
    processStart(); // pin t0 at (or before) first output
    // Arm the trace writer up front (it reads ANSMET_TRACE once and
    // registers its atexit flush), so a run that never reaches an
    // instrumented span still emits a valid trace file with the final
    // metrics snapshot embedded. Goes to stderr: trace output must not
    // perturb the figure text the CI identity diff compares.
    if (obs::TraceWriter::instance().enabled() && !quiet()) {
        std::fprintf(stderr, "[obs] tracing to %s\n",
                     std::getenv("ANSMET_TRACE"));
    }
    std::printf("==========================================================\n");
    std::printf("ANSMET reproduction — %s\n", what);
    std::printf("Paper reference: %s\n", paper_ref);
    std::printf("==========================================================\n\n");
    static bool armed = false;
    if (!armed && !quiet()) {
        armed = true;
        std::atexit([] {
            const double s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() -
                                 processStart())
                                 .count();
            std::printf("\n[timing] total wall-clock: %.2f s "
                        "(ANSMET_THREADS=%u)\n",
                        s, runtime::configuredLanes());
        });
    }
}

} // namespace ansmet::bench

#endif // ANSMET_BENCH_BENCH_UTIL_H
