/**
 * @file
 * Metrics: per-run records, and the process-wide registry they are
 * published into.
 *
 * One writer kind, one path (see DESIGN.md, "Observability layer").
 * Everything a simulated run measures goes into one RunRecord owned
 * by the run's sim::EventQueue: RunCounter and RunHistogram entries
 * updated with plain adds, plus the run's trace pid. Each entry has
 * exactly one writer. SystemModel::endSession() publishes the record
 * into the Registry once, under the registry mutex, so a snapshot
 * never sees a run half applied. Code outside a simulated run (the
 * HNSW build and search) fills a local RunRecord and publishes it the
 * same way.
 *
 * Recording never feeds back into any simulated quantity, so figure
 * output does not depend on it.
 *
 *   obs::RunCounter &reads = eq.record().counter("dram.reads");
 *   reads.inc();                          // event thread, plain add
 *   ...
 *   obs::Registry::instance().publish(eq.record());  // once, at the end
 */

#ifndef ANSMET_METRICS_H
#define ANSMET_METRICS_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ansmet::obs {

/** Histogram state: log2 buckets plus a value sum. */
struct HistogramData
{
    /** bucket 0 = value 0; bucket i>=1 = values in [2^(i-1), 2^i),
     *  with the last bucket absorbing everything larger. */
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    double mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    /**
     * Approximate q-quantile (0 < q <= 1) by nearest rank over the
     * log2 buckets, returned as the inclusive upper bound of the
     * bucket holding that rank (0 for the zero bucket, 2^i - 1 for
     * bucket i). For samples below the last bucket's absorption point
     * the estimate e brackets the true sample v as e/2 < v <= e — the
     * log2 error bound the recorder tests assert. Returns 0 when
     * empty.
     */
    [[nodiscard]] std::uint64_t
    quantile(double q) const
    {
        if (count == 0)
            return 0;
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(count)));
        rank = rank < 1 ? 1 : (rank > count ? count : rank);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            seen += buckets[i];
            if (seen >= rank)
                return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
        }
        return 0; // unreachable: count == sum of buckets
    }
};

/** Point-in-time merged view of every metric. */
struct Snapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramData> histograms;

    /** Stable, machine-readable JSON rendering. */
    std::string toJson() const;
};

/** Counter entry of a RunRecord: one writer, a plain add. */
class RunCounter
{
  public:
    void add(std::uint64_t n) { value_ += n; }
    void inc() { ++value_; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Log2 histogram entry of a RunRecord: one writer, plain adds. */
class RunHistogram
{
  public:
    explicit RunHistogram(unsigned buckets);

    void
    sample(std::uint64_t v)
    {
        const std::size_t last = data_.buckets.size() - 1;
        ++data_.buckets[std::min<std::size_t>(std::bit_width(v), last)];
        ++data_.count;
        data_.sum += v;
    }

    const HistogramData &data() const { return data_; }

  private:
    HistogramData data_;
};

/**
 * Everything one simulated run measures on its event thread, plus the
 * trace pid its spans are stamped with. Entries are created on first
 * lookup by name and never move, so components bind references once
 * (at construction) and record through them afterwards. Not
 * thread-safe: written and published by one thread (for a simulated
 * run, its event thread).
 */
class RunRecord
{
  public:
    RunRecord() = default;
    RunRecord(const RunRecord &) = delete;
    RunRecord &operator=(const RunRecord &) = delete;

    /** The counter named @p name, created at zero on first use. */
    RunCounter &counter(std::string_view name);

    /** The histogram named @p name with @p buckets log2 buckets,
     *  created empty on first use; a different bucket count for an
     *  existing name panics. */
    RunHistogram &histogram(std::string_view name, unsigned buckets);

    /** Trace pid of this run (TraceWriter::beginRun), 0 before. */
    std::uint32_t tracePid() const { return trace_pid_; }
    void setTracePid(std::uint32_t pid) { trace_pid_ = pid; }

  private:
    friend class Registry;
    std::deque<std::pair<std::string, RunCounter>> counters_;
    std::deque<std::pair<std::string, RunHistogram>> histograms_;
    std::uint32_t trace_pid_ = 0;
};

/** Process-wide metric registry. */
class Registry
{
  public:
    /** The singleton (leaky; safe from atexit handlers). */
    static Registry &instance();

    /** Add every entry of @p run to the published totals, at once. */
    void publish(const RunRecord &run);

    /** Totals of every record published so far. */
    Snapshot snapshot() const;

    /** snapshot().toJson() convenience. */
    std::string snapshotJson() const;

    /** Zero every published total (tests and run-scoped collection). */
    void reset();

    ~Registry() = delete;

  private:
    Registry() = default;
    struct Impl;
    Impl &impl() const;
};

} // namespace ansmet::obs

#endif // ANSMET_METRICS_H
