#include "ndp/ndp_unit.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"
#include "obs/trace.h"

namespace ansmet::ndp {

NdpUnit::Metrics::Metrics(obs::RunRecord &rec)
    : tasks(rec.counter("ndp.tasks_completed")),
      lines(rec.counter("ndp.lines_fetched")),
      backpressure(rec.counter("ndp.backpressure_staged")),
      taskLines(rec.histogram("ndp.task_lines", 16)),
      taskLatency(rec.histogram("ndp.task_latency_ps", 48)),
      slotOccupancy(rec.histogram("ndp.qshr_slot_occupancy", 8))
{
}

NdpUnit::NdpUnit(sim::EventQueue &eq, const NdpParams &np,
                 const dram::TimingParams &tp, const dram::OrgParams &org,
                 unsigned unit_id)
    : eq_(eq), np_(np),
      ctrl_(std::make_unique<dram::MemController>(
          eq, tp, org, 1, "ndp_rank" + std::to_string(unit_id))),
      org_(org),
      qshrs_(np.numQshrs),
      id_(unit_id)
{
}

void
NdpUnit::submit(unsigned qshr, NdpTask task)
{
    ANSMET_CHECK(qshr < qshrs_.size(), "bad QSHR id ", qshr, " (unit has ",
                 qshrs_.size(), ")");
    // A zero-line task would stall the QSHR forever waiting for a line
    // that was never issued; callers clamp with max(1, lines).
    ANSMET_DCHECK(task.lines >= 1, "zero-line task submitted to QSHR ",
                  qshr);
    QshrState &q = qshrs_[qshr];
    // An inactive QSHR must hold no half-executed task state; anything
    // else means a slot was recycled without completing (double free).
    ANSMET_DCHECK(q.active ||
                      (q.fifo.empty() && q.staged.empty() &&
                       q.linesToIssue == 0 && q.linesInFlight == 0),
                  "idle QSHR ", qshr, " holds stale task state");
    m_.slotOccupancy.sample(q.fifo.size());
    if (q.fifo.size() >= np_.tasksPerQshr) {
        // All architectural slots busy: stage host-side until one
        // frees. Execution order is unchanged (strict FIFO per QSHR).
        q.staged.push_back(std::move(task));
        m_.backpressure.inc();
        return;
    }
    q.fifo.push_back(std::move(task));
    if (!q.active)
        startNext(qshr);
}

unsigned
NdpUnit::occupiedSlots(unsigned qshr) const
{
    ANSMET_CHECK(qshr < qshrs_.size(), "bad QSHR id ", qshr);
    return static_cast<unsigned>(qshrs_[qshr].fifo.size());
}

unsigned
NdpUnit::stagedTasks(unsigned qshr) const
{
    ANSMET_CHECK(qshr < qshrs_.size(), "bad QSHR id ", qshr);
    return static_cast<unsigned>(qshrs_[qshr].staged.size());
}

void
NdpUnit::startNext(unsigned qshr)
{
    QshrState &q = qshrs_[qshr];
    ANSMET_DCHECK(q.linesToIssue == 0 && q.linesInFlight == 0,
                  "QSHR ", qshr, " started a task with fetches in flight");
    ANSMET_DCHECK(q.fifo.size() <= np_.tasksPerQshr,
                  "QSHR ", qshr, " exceeds its ", np_.tasksPerQshr,
                  " task slots");
    ANSMET_DCHECK(q.fifo.size() == np_.tasksPerQshr || q.staged.empty(),
                  "QSHR ", qshr, " staged tasks while slots were free");
    if (q.fifo.empty()) {
        q.active = false;
        return;
    }
    q.active = true;
    q.headStart = eq_.now();
    const NdpTask &t = q.fifo.front();
    q.linesToIssue = std::max(1u, t.lines);
    q.linesInFlight = 0;
    q.nextLine = t.startLine;
    // QSHR lookup + command generation latency before the first fetch.
    eq_.scheduleIn(
        static_cast<std::uint64_t>(np_.qshrLookupCycles) * np_.period(),
        [this, qshr] { issueWindow(qshr); });
}

void
NdpUnit::issueWindow(unsigned qshr)
{
    QshrState &q = qshrs_[qshr];
    ANSMET_DCHECK(q.active, "fetch issue on inactive QSHR ", qshr);
    while (q.linesToIssue > 0 &&
           q.linesInFlight < np_.fetchPipelineDepth) {
        dram::Request req;
        req.addr = dram::mapLine(q.nextLine, org_);
        req.isWrite = false;
        req.onComplete = [this, qshr](Tick when) {
            lineArrived(qshr, when);
        };
        ++q.nextLine;
        --q.linesToIssue;
        ++q.linesInFlight;
        m_.lines.inc();
        ctrl_->enqueue(0, std::move(req));
    }
}

void
NdpUnit::lineArrived(unsigned qshr, Tick when)
{
    QshrState &q = qshrs_[qshr];
    ANSMET_CHECK(q.active && q.linesInFlight > 0,
                 "line arrival on QSHR ", qshr, " with no fetch outstanding");
    ANSMET_DCHECK(!q.fifo.empty(), "line arrival on QSHR ", qshr,
                  " with no task");
    ANSMET_DCHECK(q.linesInFlight <= np_.fetchPipelineDepth,
                  "fetch window overflow on QSHR ", qshr);
    --q.linesInFlight;

    // The distance computing unit consumes the line, plus one cycle
    // for the bound comparison; the comparison gates further issue.
    const NdpTask &t = q.fifo.front();
    const std::uint64_t cycles =
        std::max(1u, t.computeCyclesPerLine) + 1;
    const Tick start = std::max(when, compute_free_at_);
    const Tick end = start + cycles * np_.period();
    ANSMET_DCHECK(end > start, "compute occupancy must advance");
    compute_free_at_ = end;
    compute_busy_ += end - start;

    if (q.linesToIssue > 0) {
        eq_.schedule(end, [this, qshr] { issueWindow(qshr); });
        return;
    }
    if (q.linesInFlight > 0)
        return; // wait for the stragglers

    // Task complete at the end of the final bound/distance computation.
    eq_.schedule(end, [this, qshr, end] {
        QshrState &qs = qshrs_[qshr];
        ANSMET_CHECK(qs.active && !qs.fifo.empty(),
                     "task completion on empty QSHR ", qshr,
                     " (slot double free)");
        ANSMET_DCHECK(qs.linesToIssue == 0 && qs.linesInFlight == 0,
                      "task completed on QSHR ", qshr,
                      " with fetches outstanding");
        NdpTask done = std::move(qs.fifo.front());
        qs.fifo.pop_front();
        // The freed slot immediately re-fills from the staging queue,
        // preserving FIFO order across the backpressure boundary.
        if (!qs.staged.empty()) {
            qs.fifo.push_back(std::move(qs.staged.front()));
            qs.staged.pop_front();
        }
        m_.tasks.inc();
        m_.taskLines.sample(std::max(1u, done.lines));
        m_.taskLatency.sample((end - qs.headStart).raw());
        obs::TraceWriter::instance().span(eq_.record(), "ndp_task",
                                          obs::ndpLaneTid(id_, qshr),
                                          qs.headStart, end);
        if (done.onComplete)
            done.onComplete(end);
        startNext(qshr);
    });
}

} // namespace ansmet::ndp
