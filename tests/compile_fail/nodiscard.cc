/**
 * @file
 * Compile-fail fixture: each call below returns an outcome the caller
 * cannot infer any other way, so its declaration is [[nodiscard]] and
 * a bare expression-statement discard must not compile under
 * -Werror=unused-result (the CI builds configure -DANSMET_WERROR=ON).
 *
 * Built only with -fsyntax-only by the NoDiscard.* ctests
 * (tests/CMakeLists.txt): -DCASE=n compiles the n-th bare discard and
 * must fail; without CASE every result is cast to (void), the explicit
 * acknowledgement, and the file must compile. That control proves the
 * six failures come from the discards, not from a broken include.
 */

#include "common/runtime/runtime.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "sim/event_queue.h"

namespace ansmet {

void
discardResults(serve::AdmissionScheduler &adm, const obs::HistogramData &h,
               sim::EventQueue &eq)
{
#if !defined(CASE)
    (void)runtime::parseLanes("4");
    (void)adm.tryOffer(1, 0, Tick{});
    (void)adm.admitNext(Tick{});
    (void)h.quantile(0.99);
    (void)eq.scheduleCancelable(Tick{}, [] {});
    (void)eq.scheduleInCancelable(TickDelta{1}, [] {});
#elif CASE == 1 // runtime::parseLanes
    runtime::parseLanes("4");
#elif CASE == 2 // AdmissionScheduler::tryOffer
    adm.tryOffer(1, 0, Tick{});
#elif CASE == 3 // AdmissionScheduler::admitNext
    adm.admitNext(Tick{});
#elif CASE == 4 // HistogramData::quantile
    h.quantile(0.99);
#elif CASE == 5 // EventQueue::scheduleCancelable
    eq.scheduleCancelable(Tick{}, [] {});
#elif CASE == 6 // EventQueue::scheduleInCancelable
    eq.scheduleInCancelable(TickDelta{1}, [] {});
#endif
}

} // namespace ansmet
