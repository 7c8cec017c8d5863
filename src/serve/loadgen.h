/**
 * @file
 * Open-loop load generation for the serving engine: arrival times from
 * a Poisson or bursty (two-state MMPP) process, query identity from a
 * Zipf popularity draw over the trace set.
 *
 * Open-loop means arrivals are independent of service: the schedule is
 * generated up front as a pure function of the config (seed included),
 * and queries arrive at their scheduled ticks whether or not the
 * system has capacity — saturation shows up as queue wait and drops,
 * exactly the regime closed-loop batch replay can't measure. The
 * schedule is bitwise reproducible for a given config on any thread or
 * core configuration (the generator never touches global randomness;
 * see common/prng.h).
 */

#ifndef ANSMET_SERVE_LOADGEN_H
#define ANSMET_SERVE_LOADGEN_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ansmet::serve {

/** Arrival-time process shape. */
enum class ArrivalProcess
{
    kPoisson, //!< exponential inter-arrivals at the offered rate
    /**
     * Two-state Markov-modulated Poisson process: exponential dwell
     * times alternate between a high-rate burst state and a low-rate
     * quiet state, with the long-run average held at the offered
     * rate. Models the flash-crowd traffic a p999 gate exists for.
     */
    kBursty,
};

const char *arrivalProcessName(ArrivalProcess p);

/** Configuration of one generated arrival schedule. */
struct LoadGenConfig
{
    double offeredQps = 10000.0; //!< long-run average arrival rate
    std::uint64_t numQueries = 256;
    std::size_t numTraces = 1; //!< popularity domain: traces [0, n)
    ArrivalProcess process = ArrivalProcess::kPoisson;

    /**
     * Burst-state rate multiplier (kBursty). The quiet-state rate is
     * derived so the time-weighted average stays at offeredQps, which
     * requires burstFactor * burstFraction < 1.
     */
    double burstFactor = 8.0;
    double burstFraction = 0.1; //!< long-run fraction of time bursting
    double meanBurstNs = 2.0e6; //!< mean dwell in the burst state

    /**
     * Zipf exponent of the query-popularity draw (> 1; the rejection
     * sampler in Prng::zipf requires it). Larger = more skew; trace 0
     * is the hottest. With one trace every arrival replays it.
     */
    double zipfAlpha = 1.2;

    std::uint64_t seed = 1; //!< ANSMET_SEED; the only entropy source
};

/** One scheduled query arrival. */
struct Arrival
{
    Tick at{};
    std::size_t traceIdx = 0;
    std::uint64_t queryId = 0; //!< dense arrival index; unique per run
};

/**
 * Generate the full arrival schedule: numQueries arrivals in
 * nondecreasing tick order with Zipf-drawn trace indices. Pure
 * function of @p cfg. If @p bursts is given, it receives the number of
 * burst periods (kBursty) that began before the last arrival.
 */
std::vector<Arrival> generateArrivals(const LoadGenConfig &cfg,
                                      std::uint64_t *bursts = nullptr);

/**
 * Mean burst dwell (ns) at which the expected span of @p cfg's schedule,
 * numQueries / offeredQps, holds @p periods burst-plus-quiet periods:
 * span * burstFraction / periods. A fixed dwell can outlast the whole
 * schedule at high offered rates, so that no burst ever begins.
 */
double meanBurstNsForPeriods(const LoadGenConfig &cfg, double periods);

} // namespace ansmet::serve

#endif // ANSMET_SERVE_LOADGEN_H
