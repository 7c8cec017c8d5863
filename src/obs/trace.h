/**
 * @file
 * Per-query trace spans exported in Chrome trace_event JSON format
 * (load the file in chrome://tracing or https://ui.perfetto.dev).
 *
 * Spans are recorded against simulated time (Tick = picoseconds) and
 * mapped onto trace rows as:
 *
 *   pid  — one simulated run (SystemModel session for one design):
 *          TraceWriter::beginRun("NDP-ETOpt") hands out a fresh pid,
 *          which the run keeps in its obs::RunRecord; span() and
 *          counter() take the record, so runs replayed one after
 *          another (or side by side) never share a timeline;
 *   tid  — a lane inside the run: query index for query-stage spans,
 *          ndpLaneTid(unit, qshr) for NDP task spans, dramLaneTid for
 *          DRAM counter tracks.
 *
 * Recording is active only when the process was started with
 * ANSMET_TRACE=<path>; otherwise every call is a cheap early-out.
 * Events buffer in memory (bounded by ANSMET_TRACE_LIMIT, default
 * 2'000'000; overflow is counted, never silent) and flush to the path
 * at process exit or on TraceWriter::flush(). The flushed JSON also
 * embeds the full metrics Snapshot under "metrics".
 *
 * Tracing never feeds back into simulated behaviour.
 */

#ifndef ANSMET_TRACE_H
#define ANSMET_TRACE_H

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.h"

namespace ansmet::obs {

class RunRecord;

/** One "k":"v" argument attached to a trace event. */
struct TraceArg
{
    std::string_view key;
    std::int64_t value = 0;
};

class TraceWriter
{
  public:
    /** The singleton; reads ANSMET_TRACE / ANSMET_TRACE_LIMIT once. */
    static TraceWriter &instance();

    /** True when ANSMET_TRACE is set — callers may skip building
     *  event arguments entirely when tracing is off. */
    bool enabled() const { return enabled_; }

    /**
     * Allocate a fresh pid for a new run, labelled @p name via
     * process_name metadata. The run stores it in its RunRecord
     * (setTracePid); 0 when tracing is off.
     */
    std::uint32_t beginRun(std::string_view name);

    /** Complete ("X") span on (@p run's pid, @p tid) covering
     *  [start, end] in simulated time. */
    void span(const RunRecord &run, std::string_view name,
              std::uint32_t tid, Tick start, Tick end,
              const TraceArg *args = nullptr, std::size_t numArgs = 0);

    /** Counter ("C") track sample on @p run's timeline at @p when. */
    void counter(const RunRecord &run, std::string_view name,
                 std::uint32_t tid, Tick when, std::int64_t value);

    /** Write the trace file now (also runs automatically at exit).
     *  Idempotent per accumulated state; later events re-flush. */
    void flush();

    /** Events dropped because the buffer hit ANSMET_TRACE_LIMIT. */
    std::uint64_t dropped() const;

    ~TraceWriter() = delete;

  private:
    TraceWriter();
    struct Impl;
    Impl &impl() const;
    bool enabled_ = false;
};

/** tid convention for NDP task rows: one lane per (unit, qshr). */
inline std::uint32_t
ndpLaneTid(unsigned unit, unsigned qshr)
{
    return 10000 + unit * 64 + qshr;
}

/** tid convention for DRAM controller counter tracks. */
inline std::uint32_t
dramLaneTid(unsigned controller)
{
    return 20000 + controller;
}

} // namespace ansmet::obs

#endif // ANSMET_TRACE_H
