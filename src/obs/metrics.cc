#include "obs/metrics.h"

#include <cstdio>
#include <memory>

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
    // Worker-thread counters: name -> shard slot.
    std::map<std::string, std::uint32_t> slots
        ANSMET_GUARDED_BY(mu);
    std::vector<std::unique_ptr<detail::Shard>> shards
        ANSMET_GUARDED_BY(mu);
    std::uint32_t nextSlot ANSMET_GUARDED_BY(mu) = 0;
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

namespace detail {

Shard &
newShard()
{
    // Registry-owned so snapshot() sees the shard and the storage
    // outlives the recording thread (handles cache a raw pointer and
    // may flush from atexit handlers after thread teardown).
    Registry::Impl &i = Registry::instance().impl();
    auto shard = std::make_unique<Shard>();
    Shard &ref = *shard;
    MutexLock lock(i.mu);
    i.shards.push_back(std::move(shard));
    return ref;
}

} // namespace detail

Counter
Registry::counter(std::string_view name)
{
    Impl &i = impl();
    MutexLock lock(i.mu);
    const auto [it, fresh] = i.slots.try_emplace(std::string(name), 0);
    if (fresh) {
        ANSMET_CHECK(i.nextSlot < detail::kShardSlots,
                     "obs: shard capacity exhausted (", detail::kShardSlots,
                     " slots); raise kShardSlots");
        it->second = i.nextSlot++;
    }
    return Counter(it->second);
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
    for (const auto &[name, slot] : i.slots) {
        std::uint64_t sum = 0;
        for (const auto &shard : i.shards)
            sum += shard->slots[slot].load(std::memory_order_relaxed);
        snap.counters[name] += sum;
    }
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
    for (const auto &shard : i.shards)
        for (auto &slot : shard->slots)
            slot.store(0, std::memory_order_relaxed);
    for (auto &[name, v] : i.counters)
        v = 0;
    for (auto &[name, h] : i.histograms)
        h = HistogramData{std::vector<std::uint64_t>(h.buckets.size(), 0)};
}

} // namespace ansmet::obs
