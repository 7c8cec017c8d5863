/**
 * @file
 * Macro-benchmark of the fork-join pool (common/runtime/).
 *
 * Families, emitted into BENCH_runtime.json by CI
 * (`--benchmark_out=BENCH_runtime.json --benchmark_out_format=json`):
 *
 *  - runtime_parallel_for/dispatch: back-to-back parallelFor calls
 *    whose chunks do almost nothing, so the time per call is the
 *    pool's own cost — publish the job, wake the workers, claim the
 *    cursor, join. Informational (no tier suffix, so bench_diff
 *    reports no ratio for it).
 *
 *  - runtime_parallel_for/cpu/<tier>: one CPU-bound parallelFor over
 *    independent items, on a one-lane pool ("ref", the
 *    ANSMET_THREADS=1 reference path) and on a pool of the configured
 *    lanes ("opt"). This is the gated pair; on a host with at least
 *    two cores CI enforces
 *        python3 tools/bench_diff.py --speedup BENCH_runtime.json \
 *            --min-ratio 1.3 --require runtime_parallel_for/cpu/opt
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/runtime/runtime.h"

namespace {

using namespace ansmet;

/** Lanes of the measured pool: the configured count, clamped so the
 *  pool has a worker even on one core and does not drown a big CI
 *  runner in oversubscription noise. */
unsigned
benchLanes()
{
    return std::clamp(runtime::configuredLanes(), 2u, 8u);
}

/** Items of the CPU-bound loop; each is a few hundred nanoseconds. */
constexpr std::size_t kCpuItems = std::size_t{1} << 14;

/** Per-item payload: xorshift rounds, pure in the item index. */
inline std::uint64_t
spinWork(std::uint64_t x)
{
    for (unsigned i = 0; i < 64; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x | 1;
}

void
BM_Dispatch(benchmark::State &state)
{
    runtime::Runtime rt(benchLanes());
    const std::size_t n = std::size_t{8} * rt.lanes();
    std::vector<std::uint64_t> slot(n, 0);
    std::int64_t calls = 0;
    for (auto _ : state) {
        rt.parallelFor(0, n, [&slot](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                slot[i] += i;
        });
        ++calls;
    }
    benchmark::DoNotOptimize(slot.data());
    state.SetItemsProcessed(calls);
}

void
BM_Cpu(benchmark::State &state, unsigned lanes)
{
    runtime::Runtime rt(lanes);
    std::vector<std::uint64_t> slot(kCpuItems, 0);
    std::int64_t items = 0;
    for (auto _ : state) {
        rt.parallelFor(0, kCpuItems, [&slot](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                slot[i] = spinWork(0x9E3779B97F4A7C15ull + i);
        });
        benchmark::DoNotOptimize(
            std::accumulate(slot.begin(), slot.end(), std::uint64_t{0}));
        items += static_cast<std::int64_t>(kCpuItems);
    }
    state.SetItemsProcessed(items);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::RegisterBenchmark("runtime_parallel_for/dispatch",
                                 BM_Dispatch);
    benchmark::RegisterBenchmark(
        "runtime_parallel_for/cpu/ref",
        [](benchmark::State &st) { BM_Cpu(st, 1); });
    benchmark::RegisterBenchmark(
        "runtime_parallel_for/cpu/opt",
        [](benchmark::State &st) { BM_Cpu(st, benchLanes()); });
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
