#include "serve/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ansmet::serve {

namespace {

/**
 * Per-serve driver. Lives on the stack of serve() for the duration of
 * the event loop; every callback it schedules is descheduled-by-
 * completion before serve() returns (the loop drains fully).
 */
class Driver
{
  public:
    Driver(core::SystemModel &sys,
           const std::vector<core::QueryTrace> &traces,
           std::vector<Arrival> arrivals, AdmissionScheduler &adm,
           ServeReport &report)
        : sys_(sys), adm_(adm), report_(report),
          arrivals_(std::move(arrivals))
    {
        sys_.beginSession(traces, adm.maxInFlight());
        // Open-loop: every arrival is on the calendar before the run
        // starts; service backlog never delays an arrival.
        auto &eq = sys_.eventQueue();
        for (std::size_t i = 0; i < arrivals_.size(); ++i) {
            eq.schedule(arrivals_[i].at,
                        [this, i] { onArrival(arrivals_[i]); });
        }
    }

    void
    run()
    {
        sys_.eventQueue().run();
        writeMetrics(sys_.eventQueue().record());
        report_.run = sys_.endSession();
        report_.offered = adm_.offered();
        report_.admitted = adm_.admitted();
        report_.dropped = adm_.dropped();
        report_.maxOccupiedQshrs = adm_.maxOccupiedQshrs();
        report_.makespan = report_.run.makespan;
    }

  private:
    /** Write the serve.* metrics into the run's record, from the
     *  scheduler's counts and the recorder's raw samples; endSession()
     *  publishes them with the rest of the run. */
    void
    writeMetrics(obs::RunRecord &rec) const
    {
        rec.counter("serve.admitted").add(adm_.admitted());
        rec.counter("serve.dropped").add(adm_.dropped());
        for (unsigned p = 0; p < kNumPhases; ++p) {
            const auto phase = static_cast<Phase>(p);
            obs::RunHistogram &h = rec.histogram(
                std::string("serve.") + phaseName(phase) + "_ps", 48);
            for (const std::uint64_t ps : report_.latency.samples(phase))
                h.sample(ps);
        }
    }

    void
    onArrival(const Arrival &a)
    {
        const Tick now = sys_.eventQueue().now();
        // A dropped arrival enqueues nothing, so there is nothing to
        // pump: every slot release already pumps for itself.
        if (adm_.tryOffer(a.queryId, a.traceIdx, now))
            pump();
    }

    /** Admit while a slot and a queued arrival are both available. */
    void
    pump()
    {
        while (auto adm = adm_.admitNext(sys_.eventQueue().now()))
            launch(*adm);
    }

    void
    launch(const AdmissionScheduler::Admitted &a)
    {
        const Tick now = sys_.eventQueue().now();
        const TickDelta wait = now - a.enqueuedAt;
        obs::TraceWriter::instance().span(
            sys_.eventQueue().record(), "queue_wait",
            obs::queueWaitTid(a.queryId), a.enqueuedAt, now);
        sys_.submit(a.slot, a.traceIdx, a.queryId,
                    [this, a, wait](const core::QueryStats &qs) {
                        onDone(a, wait, qs);
                    });
    }

    void
    onDone(const AdmissionScheduler::Admitted &a, TickDelta wait,
           const core::QueryStats &qs)
    {
        auto &lat = report_.latency;
        lat.record(Phase::kQueueWait, wait.raw());
        lat.record(Phase::kTraverse, qs.traversal.raw());
        lat.record(Phase::kOffload, qs.offload.raw());
        lat.record(Phase::kCompute, qs.distComp.raw());
        lat.record(Phase::kCollect, qs.collect.raw());
        lat.record(Phase::kTotal, (wait + qs.latency()).raw());
        ++report_.completed;

        ServedQuery sq;
        sq.queryId = a.queryId;
        sq.traceIdx = a.traceIdx;
        sq.queueWait = wait;
        sq.stats = qs;
        report_.queries.push_back(sq);

        adm_.release(a.slot, a.queryId);
        // The freed slot may immediately take the next queued arrival
        // at this same tick.
        pump();
    }

    core::SystemModel &sys_;
    AdmissionScheduler &adm_;
    ServeReport &report_;
    std::vector<Arrival> arrivals_;
};

} // namespace

ServeReport
serve(core::SystemModel &sys,
      const std::vector<core::QueryTrace> &traces, const ServeConfig &cfg)
{
    ANSMET_CHECK(!traces.empty(), "serve: empty trace set");

    LoadGenConfig load = cfg.load;
    load.numTraces = traces.size();

    const core::SystemConfig &sc = sys.config();
    AdmissionConfig ac;
    ac.queueCapacity = cfg.queueCapacity;
    ac.numQshrs = sc.ndpParams.numQshrs;
    ac.qshrsPerQuery = std::max(1u, sc.qshrsPerQuery);
    ac.maxInFlightCap = cfg.maxInFlight;
    // CPU designs have no QSHRs to pack; bound by host cores instead.
    if (!isNdp(sc.design)) {
        ac.numQshrs = sc.concurrentQueries;
        ac.qshrsPerQuery = 1;
    }

    ServeReport report;
    AdmissionScheduler adm(ac);
    Driver driver(sys, traces, generateArrivals(load, &report.bursts), adm,
                  report);
    driver.run();
    return report;
}

} // namespace ansmet::serve
