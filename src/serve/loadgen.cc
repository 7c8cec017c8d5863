#include "serve/loadgen.h"

#include <cmath>

#include "common/check.h"
#include "common/prng.h"

namespace ansmet::serve {

namespace {

/** Exponential draw with mean 1/@p rate, in ticks (rate is per tick). */
TickDelta
exponential(Prng &rng, double rate)
{
    double u = rng.uniform();
    if (u < 1e-300)
        u = 1e-300;
    const double ticks = -std::log(u) / rate;
    // At least one tick apart so arrival order is total and stable.
    return TickDelta{static_cast<std::uint64_t>(
        std::max(1.0, std::round(ticks)))};
}

} // namespace

const char *
arrivalProcessName(ArrivalProcess p)
{
    switch (p) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBursty: return "bursty";
    }
    return "?";
}

std::vector<Arrival>
generateArrivals(const LoadGenConfig &cfg, std::uint64_t *bursts)
{
    ANSMET_CHECK(cfg.offeredQps > 0.0, "loadgen: offeredQps must be > 0");
    ANSMET_CHECK(cfg.numTraces > 0, "loadgen: empty trace set");
    ANSMET_CHECK(cfg.zipfAlpha > 1.0,
                 "loadgen: zipfAlpha must be > 1 (rejection sampler)");

    // Offered rate in arrivals per simulated tick (tick = 1 ps).
    const double rate = cfg.offeredQps * 1e-12;

    // Independent streams per concern: adding e.g. an extra popularity
    // draw must not shift every subsequent arrival time.
    Prng arrivals = Prng::stream(cfg.seed, 0);
    Prng popularity = Prng::stream(cfg.seed, 1);
    Prng modulation = Prng::stream(cfg.seed, 2);

    // Two-state MMPP rates and mean dwells. With burst fraction f and
    // factor B, the quiet rate (1 - f*B)/(1 - f) * rate keeps the
    // time-weighted average at the offered rate.
    double rate_high = rate;
    double rate_low = rate;
    double dwell_high_ticks = 0.0;
    double dwell_low_ticks = 0.0;
    if (cfg.process == ArrivalProcess::kBursty) {
        const double f = cfg.burstFraction;
        ANSMET_CHECK(f > 0.0 && f < 1.0,
                     "loadgen: burstFraction must be in (0, 1)");
        ANSMET_CHECK(cfg.burstFactor * f < 1.0,
                     "loadgen: burstFactor * burstFraction must be < 1 "
                     "to keep the quiet-state rate positive");
        rate_high = rate * cfg.burstFactor;
        rate_low = rate * (1.0 - f * cfg.burstFactor) / (1.0 - f);
        dwell_high_ticks =
            cfg.meanBurstNs * static_cast<double>(kTicksPerNs.raw());
        dwell_low_ticks = dwell_high_ticks * (1.0 - f) / f;
    }

    std::vector<Arrival> out;
    out.reserve(cfg.numQueries);

    Tick now{};
    bool bursting = false;
    std::uint64_t bursts_begun = 0;
    // Tick at which the current modulation state ends (kBursty only).
    Tick state_end{};
    if (cfg.process == ArrivalProcess::kBursty)
        state_end = now + exponential(modulation, 1.0 / dwell_low_ticks);

    for (std::uint64_t q = 0; q < cfg.numQueries; ++q) {
        if (cfg.process == ArrivalProcess::kPoisson) {
            now += exponential(arrivals, rate);
        } else {
            // Draw in the current state; if the gap crosses the state
            // boundary, restart the (memoryless) draw from the switch
            // point in the new state.
            for (;;) {
                const double r = bursting ? rate_high : rate_low;
                const Tick cand = now + exponential(arrivals, r);
                if (cand <= state_end) {
                    now = cand;
                    break;
                }
                now = state_end;
                bursting = !bursting;
                if (bursting)
                    ++bursts_begun;
                const double dwell =
                    bursting ? dwell_high_ticks : dwell_low_ticks;
                state_end =
                    now + exponential(modulation, 1.0 / dwell);
            }
        }
        Arrival a;
        a.at = now;
        a.queryId = q;
        a.traceIdx = cfg.numTraces == 1
                         ? 0
                         : static_cast<std::size_t>(popularity.zipf(
                               cfg.numTraces, cfg.zipfAlpha));
        out.push_back(a);
    }
    if (bursts != nullptr)
        *bursts = bursts_begun;
    return out;
}

double
meanBurstNsForPeriods(const LoadGenConfig &cfg, double periods)
{
    ANSMET_CHECK(cfg.offeredQps > 0.0, "loadgen: offeredQps must be > 0");
    ANSMET_CHECK(periods > 0.0, "loadgen: periods must be > 0");
    const double span_ns =
        static_cast<double>(cfg.numQueries) / cfg.offeredQps * 1e9;
    return span_ns * cfg.burstFraction / periods;
}

} // namespace ansmet::serve
