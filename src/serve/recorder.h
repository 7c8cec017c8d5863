/**
 * @file
 * Per-phase latency recorder for the serving engine.
 *
 * Every completed query contributes one sample per phase (queue wait,
 * traverse, offload, compute, collect, end-to-end total). The raw
 * samples are kept for *exact* nearest-rank quantiles — the
 * p50/p99/p999 the bench reports and CI gates on must not carry
 * bucketing error. serve() folds them into the run's obs::RunRecord
 * as log2 histograms ("serve.<phase>_ps") once, at the end of the run,
 * so serving latency also shows up in metric snapshots and trace-file
 * dumps at the documented 2x bucket-bound accuracy.
 *
 * The recorder is driven only from simulation callbacks (one thread);
 * it is not thread-safe and does not need to be.
 */

#ifndef ANSMET_SERVE_RECORDER_H
#define ANSMET_SERVE_RECORDER_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ansmet::serve {

/** Latency phases of one served query. */
enum class Phase : unsigned
{
    kQueueWait = 0, //!< arrival (enqueue) to admission on a slot
    kTraverse,      //!< index reads + step overhead + heap ops
    kOffload,       //!< NDP instruction transfer
    kCompute,       //!< distance comparison (CPU or NDP)
    kCollect,       //!< result polling / collection
    kTotal,         //!< arrival to completion (queue wait included)
};

constexpr unsigned kNumPhases = 6;

const char *phaseName(Phase p);

/** Order statistics of one phase's samples, in picoseconds. */
struct PhaseSummary
{
    std::size_t count = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
};

class LatencyRecorder
{
  public:
    /** Record one @p ps sample for @p phase. */
    void record(Phase phase, std::uint64_t ps);

    /** Samples recorded for @p phase so far. */
    std::size_t count(Phase phase) const;

    /**
     * Exact q-quantile (0 < q <= 1) of @p phase by nearest rank:
     * sorted[ceil(q * n) - 1]. 0 when no samples.
     */
    std::uint64_t exactQuantile(Phase phase, double q) const;

    /** p50/p99/p999/max/mean of @p phase. */
    PhaseSummary summary(Phase phase) const;

    /** The raw samples of @p phase in recording (completion) order. */
    const std::vector<std::uint64_t> &samples(Phase phase) const;

  private:
    std::array<std::vector<std::uint64_t>, kNumPhases> samples_;
};

} // namespace ansmet::serve

#endif // ANSMET_SERVE_RECORDER_H
