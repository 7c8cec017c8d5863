#include "obs/metrics.h"

#include <cstdio>

#include "common/check.h"
#include "common/sync.h"

namespace ansmet::obs {

namespace {

/** Formats without locale interference (metrics names are ASCII). */
void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

std::string
Snapshot::toJson() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counters) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": ";
        out += std::to_string(v);
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, name);
        out += ": {\"count\": ";
        out += std::to_string(h.count);
        out += ", \"sum\": ";
        out += std::to_string(h.sum);
        out += ", \"buckets\": [";
        // Trailing zero buckets are elided to keep files compact; the
        // log2 bucket index is implicit in the position.
        std::size_t last = h.buckets.size();
        while (last > 0 && h.buckets[last - 1] == 0)
            --last;
        for (std::size_t i = 0; i < last; ++i) {
            if (i)
                out += ", ";
            out += std::to_string(h.buckets[i]);
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

RunHistogram::RunHistogram(unsigned buckets)
{
    ANSMET_CHECK(buckets >= 1 && buckets <= 64,
                 "obs: histogram bucket count ", buckets, " out of range");
    data_.buckets.assign(buckets, 0);
}

RunCounter &
RunRecord::counter(std::string_view name)
{
    for (auto &[n, c] : counters_)
        if (n == name)
            return c;
    return counters_.emplace_back(std::string(name), RunCounter{}).second;
}

RunHistogram &
RunRecord::histogram(std::string_view name, unsigned buckets)
{
    for (auto &[n, h] : histograms_) {
        if (n == name) {
            ANSMET_CHECK(h.data().buckets.size() == buckets,
                         "obs: histogram '", name,
                         "' re-registered with a different shape");
            return h;
        }
    }
    return histograms_.emplace_back(std::string(name), RunHistogram(buckets))
        .second;
}

struct Registry::Impl
{
    mutable Mutex mu;
    // Totals of every published RunRecord.
    std::map<std::string, std::uint64_t> counters ANSMET_GUARDED_BY(mu);
    std::map<std::string, HistogramData> histograms ANSMET_GUARDED_BY(mu);
};

Registry::Impl &
Registry::impl() const
{
    // NOLINTNEXTLINE(ansmet-rawnew): leaked singleton; atexit-safe.
    static Impl *impl = new Impl;
    return *impl;
}

Registry &
Registry::instance()
{
    // NOLINTNEXTLINE(ansmet-rawnew): leaked singleton; atexit-safe.
    static Registry *reg = new Registry;
    return *reg;
}

void
Registry::publish(const RunRecord &run)
{
    Impl &i = impl();
    MutexLock lock(i.mu);
    for (const auto &[name, c] : run.counters_)
        i.counters[name] += c.value();
    for (const auto &[name, h] : run.histograms_) {
        const HistogramData &src = h.data();
        HistogramData &dst = i.histograms[name];
        if (dst.buckets.empty())
            dst.buckets.assign(src.buckets.size(), 0);
        ANSMET_CHECK(dst.buckets.size() == src.buckets.size(),
                     "obs: histogram '", name,
                     "' published with a different shape");
        for (std::size_t b = 0; b < src.buckets.size(); ++b)
            dst.buckets[b] += src.buckets[b];
        dst.count += src.count;
        dst.sum += src.sum;
    }
}

Snapshot
Registry::snapshot() const
{
    Impl &i = impl();
    MutexLock lock(i.mu);
    Snapshot snap;
    snap.counters = i.counters;
    snap.histograms = i.histograms;
    return snap;
}

std::string
Registry::snapshotJson() const
{
    return snapshot().toJson();
}

void
Registry::reset()
{
    Impl &i = impl();
    MutexLock lock(i.mu);
    for (auto &[name, v] : i.counters)
        v = 0;
    for (auto &[name, h] : i.histograms)
        h = HistogramData{std::vector<std::uint64_t>(h.buckets.size(), 0)};
}

} // namespace ansmet::obs
