/**
 * @file
 * In-memory span recorder for the benchmark.
 *
 * A span marks one call the benchmark makes into a layer of the
 * library (anns, et, core, serve, runtime) or a stretch of the
 * benchmark's own glue (layer "bench"). Spans carry a name, start,
 * end, parent and the run id, stay in memory, and are written once at
 * exit. A disabled recorder reads no clock and stores nothing, so the
 * untraced runs that give the end-to-end numbers pay only a branch.
 *
 * Nesting follows a per-thread "current span": a Scope opened on a
 * thread becomes the parent of scopes opened inside it on that thread.
 * Work a parallelFor hands to other threads names its parent
 * explicitly.
 */

#ifndef ANSMET_PERFBENCH_SPANS_H
#define ANSMET_PERFBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;  //!< "<layer>.<call>", e.g. "anns.hnsw_build"
    std::string layer; //!< anns | et | core | serve | runtime | bench
    double start = 0.0; //!< seconds since the recorder was created
    double end = 0.0;
    int parent = -1;    //!< index of the parent span, -1 for a root
    std::uint32_t thread = 0; //!< 0 = main thread, else a worker chunk
};

class Tracer
{
  public:
    Tracer(bool enabled, std::uint64_t run_id)
        : enabled_(enabled), run_id_(run_id),
          t0_(std::chrono::steady_clock::now())
    {
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Switch recording; only while no Scope is open. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its id, or -1 when disabled. */
    int
    open(const char *name, const char *layer, int parent,
         std::uint32_t thread)
    {
        if (!enabled_)
            return -1;
        const double now = since();
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back(Span{name, layer, now, now, parent, thread});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        const double now = since();
        std::lock_guard<std::mutex> lk(mu_);
        spans_[static_cast<std::size_t>(id)].end = now;
    }

    /** All spans; call only once every scope has closed. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON (load in chrome://tracing or Perfetto). */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                         "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": "
                         "%llu, \"tid\": %u, \"args\": {\"id\": %zu, "
                         "\"parent\": %d}}\n",
                         i ? "," : "", s.name.c_str(), s.layer.c_str(),
                         s.start * 1e6, (s.end - s.start) * 1e6,
                         static_cast<unsigned long long>(run_id_),
                         s.thread, i, s.parent);
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    double
    since() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    bool enabled_;
    const std::uint64_t run_id_;
    const std::chrono::steady_clock::time_point t0_;
    std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_ while scopes are open
};

/** RAII span; the innermost open Scope on a thread is its parent. */
class Scope
{
  public:
    Scope(Tracer &tr, const char *name, const char *layer)
        : Scope(tr, name, layer, current(), 0)
    {
    }

    /** A span on another thread whose parent is @p parent. */
    Scope(Tracer &tr, const char *name, const char *layer, int parent,
          std::uint32_t thread)
        : tr_(tr), saved_(current()),
          id_(tr.open(name, layer, parent, thread))
    {
        if (id_ >= 0)
            current() = id_;
    }

    ~Scope()
    {
        tr_.close(id_);
        if (id_ >= 0)
            current() = saved_;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    static int &
    current()
    {
        thread_local int cur = -1;
        return cur;
    }

    Tracer &tr_;
    const int saved_;
    const int id_;
};

// ----------------------------------------------------------------------
// Analysis over a finished recording.
// ----------------------------------------------------------------------

/** Length of the union of @p iv clipped to [lo, hi]. */
inline double
unionLength(std::vector<std::pair<double, double>> iv, double lo, double hi)
{
    for (auto &[a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
    }
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    for (const auto &[a, b] : iv) {
        if (b <= a)
            continue;
        if (a > cur_b) {
            total += std::max(0.0, cur_b - cur_a);
            cur_a = a;
            cur_b = b;
        } else {
            cur_b = std::max(cur_b, b);
        }
    }
    return total + std::max(0.0, cur_b - cur_a);
}

/** Index of the root span above @p id. */
inline int
rootOf(const std::vector<Span> &spans, int id)
{
    while (spans[static_cast<std::size_t>(id)].parent >= 0)
        id = spans[static_cast<std::size_t>(id)].parent;
    return id;
}

/**
 * Self time per layer: each span's duration minus the part of it its
 * children cover, summed by layer, over spans below a root in @p roots.
 */
inline std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans, const std::vector<int> &roots)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int r = rootOf(spans, static_cast<int>(i));
        if (std::find(roots.begin(), roots.end(), r) == roots.end())
            continue;
        const Span &s = spans[i];
        out[s.layer] +=
            (s.end - s.start) - unionLength(kids[i], s.start, s.end);
    }
    return out;
}

/**
 * Share of root @p root's duration covered by spans of library layers
 * (any layer but "bench") below it.
 */
inline double
layerCoverage(const std::vector<Span> &spans, int root)
{
    std::vector<std::pair<double, double>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.layer != "bench" && rootOf(spans, static_cast<int>(i)) == root)
            iv.emplace_back(s.start, s.end);
    }
    const Span &r = spans[static_cast<std::size_t>(root)];
    const double dur = r.end - r.start;
    return dur > 0.0 ? unionLength(iv, r.start, r.end) / dur : 0.0;
}

/** Durations of every span named @p name below root @p root. */
inline std::vector<double>
durationsUnder(const std::vector<Span> &spans, int root,
               const std::string &name)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name && rootOf(spans, static_cast<int>(i)) == root)
            out.push_back(spans[i].end - spans[i].start);
    return out;
}

} // namespace perfbench

#endif // ANSMET_PERFBENCH_SPANS_H
