#include "serve/recorder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ansmet::serve {

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kTraverse: return "traverse";
    case Phase::kOffload: return "offload";
    case Phase::kCompute: return "compute";
    case Phase::kCollect: return "collect";
    case Phase::kTotal: return "total";
    }
    return "?";
}

void
LatencyRecorder::record(Phase phase, std::uint64_t ps)
{
    const auto p = static_cast<unsigned>(phase);
    ANSMET_DCHECK(p < kNumPhases);
    samples_[p].push_back(ps);
}

std::size_t
LatencyRecorder::count(Phase phase) const
{
    return samples_[static_cast<unsigned>(phase)].size();
}

const std::vector<std::uint64_t> &
LatencyRecorder::samples(Phase phase) const
{
    return samples_[static_cast<unsigned>(phase)];
}

std::uint64_t
LatencyRecorder::exactQuantile(Phase phase, double q) const
{
    const auto &s = samples_[static_cast<unsigned>(phase)];
    if (s.empty())
        return 0;
    std::vector<std::uint64_t> sorted(s);
    std::sort(sorted.begin(), sorted.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = rank < 1 ? 1 : std::min(rank, sorted.size());
    return sorted[rank - 1];
}

PhaseSummary
LatencyRecorder::summary(Phase phase) const
{
    const auto &s = samples_[static_cast<unsigned>(phase)];
    PhaseSummary out;
    out.count = s.size();
    if (s.empty())
        return out;
    std::vector<std::uint64_t> sorted(s);
    std::sort(sorted.begin(), sorted.end());
    auto rank = [&](double q) {
        auto r = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(sorted.size())));
        r = r < 1 ? 1 : std::min(r, sorted.size());
        return sorted[r - 1];
    };
    out.p50 = rank(0.50);
    out.p99 = rank(0.99);
    out.p999 = rank(0.999);
    out.max = sorted.back();
    double sum = 0.0;
    for (std::uint64_t v : sorted)
        sum += static_cast<double>(v);
    out.mean = sum / static_cast<double>(sorted.size());
    return out;
}

} // namespace ansmet::serve
