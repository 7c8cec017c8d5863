/**
 * @file
 * Fork-join pool tests: ANSMET_THREADS parsing and clamping, the
 * one-lane inline path, sleeping workers waking for trickled loops,
 * concurrent external callers (a busy pool runs the second caller
 * inline and never blocks it), nested loops, exception propagation,
 * worker join at destruction, and result identity across lane counts
 * (the tsan job runs these under -fsanitize=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/runtime/runtime.h"

namespace ansmet::runtime {
namespace {

/** Lane counts every coverage test runs on: the inline path, the
 *  smallest pool, the CI core count and an odd oversubscribed one. */
constexpr unsigned kLaneCounts[] = {1, 2, 4, 7};

/** Run @p check on a fresh pool of every lane count in kLaneCounts. */
template <typename Check>
void
forEachPool(const Check &check)
{
    for (const unsigned lanes : kLaneCounts) {
        SCOPED_TRACE(lanes);
        Runtime rt(lanes);
        check(rt);
    }
}

/** Unsets an environment variable for one scope, then restores it. */
class ScopedUnsetEnv
{
  public:
    explicit ScopedUnsetEnv(const char *name) : name_(name)
    {
        if (const char *v = std::getenv(name)) {
            had_ = true;
            saved_ = v;
        }
        ::unsetenv(name);
    }
    ~ScopedUnsetEnv()
    {
        if (had_)
            ::setenv(name_, saved_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string saved_;
};

// --------------------------------------------------------------------
// Lane count (ANSMET_THREADS). No test here builds a pool at the cap.
// --------------------------------------------------------------------

TEST(Lanes, ParseAcceptsOnlyWholeDecimalStrings)
{
    EXPECT_EQ(parseLanes("1"), 1u);
    EXPECT_EQ(parseLanes("3"), 3u);
    EXPECT_EQ(parseLanes("256"), 256u);
    for (const char *junk :
         {"", "0", "-1", "+4", " 4", "4 ", "4abc", "abc", "4.0", "0x4"})
        EXPECT_EQ(parseLanes(junk), std::nullopt) << '"' << junk << '"';
}

TEST(Lanes, ParseClampsAboveTheCap)
{
    EXPECT_EQ(parseLanes(std::to_string(kMaxLanes)), kMaxLanes);
    EXPECT_EQ(parseLanes(std::to_string(kMaxLanes + 1)), kMaxLanes);
    EXPECT_EQ(parseLanes("4000"), kMaxLanes);
    // 2^32 + 1: a narrowing cast of the parsed long would read 1.
    EXPECT_EQ(parseLanes("4294967297"), kMaxLanes);
    EXPECT_EQ(parseLanes("99999999999999999999999999"), kMaxLanes);
}

TEST(Lanes, ConfiguredLanesReadsAnsmetThreads)
{
    ScopedUnsetEnv threads("ANSMET_THREADS");
    const unsigned fallback = configuredLanes();
    EXPECT_GE(fallback, 1u);
    EXPECT_LE(fallback, kMaxLanes);
    ::setenv("ANSMET_THREADS", "3", 1);
    EXPECT_EQ(configuredLanes(), 3u);
    ::setenv("ANSMET_THREADS", "4abc", 1);
    EXPECT_EQ(configuredLanes(), fallback);
    ::setenv("ANSMET_THREADS", "4000", 1);
    EXPECT_EQ(configuredLanes(), kMaxLanes);
    ::setenv("ANSMET_THREADS", "1", 1);
    EXPECT_EQ(configuredLanes(), 1u);

    // A default-configured pool under ANSMET_THREADS=1 spawns no
    // workers.
    Runtime rt;
    EXPECT_EQ(rt.lanes(), 1u);
}

// --------------------------------------------------------------------
// Runtime: inline paths, wake-up, concurrent callers, join
// --------------------------------------------------------------------

TEST(Runtime, OneLaneRuntimeRunsEverythingInlineOnTheCaller)
{
    Runtime rt(1);
    EXPECT_EQ(rt.lanes(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    std::vector<unsigned> hits(100, 0);
    rt.parallelFor(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        EXPECT_EQ(Runtime::currentWorker(), kAnyLane);
        for (std::size_t i = lo; i < hi; ++i)
            ++hits[i];
    });
    for (unsigned h : hits)
        EXPECT_EQ(h, 1u);
}

TEST(Runtime, OneIterationLoopSerializesNestedCalls)
{
    // The tests' runSerial helper: a one-iteration loop runs inline as
    // runtime work, so a nested call on a multi-lane pool runs whole
    // on the calling thread.
    Runtime rt(4);
    const std::thread::id self = std::this_thread::get_id();
    unsigned calls = 0;
    rt.parallelFor(0, 1, [&](std::size_t, std::size_t) {
        rt.parallelFor(0, 1000, [&](std::size_t lo, std::size_t hi) {
            ++calls;
            EXPECT_EQ(lo, 0u);
            EXPECT_EQ(hi, 1000u);
            EXPECT_EQ(std::this_thread::get_id(), self);
        });
    });
    EXPECT_EQ(calls, 1u);
}

TEST(Runtime, CurrentWorkerNamesThePoolLane)
{
    Runtime rt(4);
    std::vector<std::uint32_t> ran_on(512, 0);
    rt.parallelFor(
        0, ran_on.size(),
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                ran_on[i] = Runtime::currentWorker();
        },
        /*grain=*/1);
    for (const std::uint32_t w : ran_on)
        EXPECT_TRUE(w == kAnyLane || w < rt.lanes() - 1) << w;
    EXPECT_EQ(Runtime::currentWorker(), kAnyLane);
}

TEST(Runtime, ParkedWorkersWakeForTrickledWork)
{
    // Gaps far longer than any spin, so the workers are asleep each
    // time a loop is published. Each loop has two one-iteration chunks
    // that wait for each other: the caller is stuck in the first, so
    // only a woken worker can start the second. A lost wakeup shows as
    // a timed-out rendezvous instead of a hang.
    Runtime rt(3);
    unsigned timeouts = 0;
    for (unsigned t = 0; t < 50; ++t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::atomic<unsigned> started{0};
        std::atomic<unsigned> missed{0};
        rt.parallelFor(
            0, 2,
            [&](std::size_t, std::size_t) {
                started.fetch_add(1, std::memory_order_acq_rel);
                const auto deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds(10);
                while (started.load(std::memory_order_acquire) < 2 &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
                if (started.load(std::memory_order_acquire) < 2)
                    missed.fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/1);
        timeouts += missed.load();
    }
    EXPECT_EQ(timeouts, 0u);
}

TEST(Runtime, SecondExternalCallerRunsInlineWithoutBlocking)
{
    // The first caller's loop waits inside its body until released (or
    // for at most 10 s); a second external caller arriving meanwhile
    // must finish its whole loop inline on its own thread instead of
    // waiting for the first loop to end.
    Runtime rt(2);
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    std::atomic<bool> first_done{false};
    std::thread first([&] {
        rt.parallelFor(
            0, 2,
            [&](std::size_t, std::size_t) {
                entered.store(true, std::memory_order_release);
                const auto deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds(10);
                while (!release.load(std::memory_order_acquire) &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
            },
            /*grain=*/1);
        first_done.store(true, std::memory_order_release);
    });
    while (!entered.load(std::memory_order_acquire))
        std::this_thread::yield();
    const std::thread::id self = std::this_thread::get_id();
    std::size_t sum = 0;
    rt.parallelFor(0, 100, [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        for (std::size_t i = lo; i < hi; ++i)
            sum += i;
    });
    EXPECT_FALSE(first_done.load(std::memory_order_acquire));
    EXPECT_EQ(sum, 4950u);
    release.store(true, std::memory_order_release);
    first.join();
}

/** Per-index value of the concurrent-caller test: a nested loop's
 *  serial reduction, pure in the index. */
std::uint64_t
nestedValue(Runtime &rt, std::size_t idx)
{
    std::vector<std::uint64_t> inner(16, 0);
    rt.parallelFor(0, inner.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j)
            inner[j] = 0x9E3779B97F4A7C15ull * (idx + 1) ^ (j << 7);
    });
    return std::accumulate(inner.begin(), inner.end(), std::uint64_t{0});
}

TEST(Runtime, ConcurrentExternalParallelForFromManyThreads)
{
    // Four outside threads call the global parallelFor at once, each
    // with a nested parallelFor per index. Whoever finds the pool busy
    // runs inline; every index must still run exactly once, with the
    // values of the one-lane run.
    constexpr unsigned kCallers = 4;
    constexpr std::size_t kEach = 300;
    std::vector<std::uint64_t> want(kCallers * kEach);
    {
        Runtime serial(1);
        for (std::size_t i = 0; i < want.size(); ++i)
            want[i] = nestedValue(serial, i);
    }
    std::vector<std::uint64_t> got(want.size(), 0);
    std::vector<std::atomic<unsigned>> hits(want.size());
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (unsigned c = 0; c < kCallers; ++c)
        callers.emplace_back([&, c] {
            parallelFor(c * kEach, (c + 1) * kEach,
                        [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) {
                                hits[i].fetch_add(
                                    1, std::memory_order_relaxed);
                                got[i] = nestedValue(Runtime::global(), i);
                            }
                        });
        });
    for (auto &th : callers)
        th.join();
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
        ASSERT_EQ(got[i], want[i]) << "index " << i;
    }
}

TEST(Runtime, DestructorWakesAndJoinsSleepingWorkers)
{
    // Build and tear down pools back to back, with and without a loop
    // in between: every destructor must wake its sleeping workers and
    // join them (a missed stop hangs here).
    for (unsigned round = 0; round < 20; ++round) {
        Runtime rt(4);
        if (round % 2 == 0)
            continue;
        std::atomic<unsigned> ran{0};
        rt.parallelFor(0, 64, [&ran](std::size_t lo, std::size_t hi) {
            ran.fetch_add(static_cast<unsigned>(hi - lo),
                          std::memory_order_relaxed);
        });
        EXPECT_EQ(ran.load(), 64u);
    }
}

// --------------------------------------------------------------------
// Determinism across lane counts
// --------------------------------------------------------------------

/** A toy reduction whose result must not depend on the lane count:
 *  per-index values land in indexed slots, the reduction is serial. */
std::uint64_t
checksumWithLanes(unsigned lanes)
{
    Runtime rt(lanes);
    constexpr std::size_t kN = 4096;
    constexpr std::size_t kParts = 16;
    std::vector<std::uint64_t> slot(kN, 0);
    rt.parallelFor(0, kN, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            std::uint64_t x = 0x9E3779B97F4A7C15ull * (i + 1);
            x ^= x >> 29;
            slot[i] = x;
        }
    });
    std::vector<std::uint64_t> partial(kParts, 0);
    rt.parallelFor(
        0, kParts,
        [&](std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p)
                for (std::size_t i = p * (kN / kParts);
                     i < (p + 1) * (kN / kParts); ++i)
                    partial[p] += slot[i];
        },
        /*grain=*/1);
    // Canonical serial reduction order.
    return std::accumulate(partial.begin(), partial.end(),
                           std::uint64_t{0});
}

TEST(Runtime, ResultsAreIdenticalAcrossLaneCounts)
{
    const std::uint64_t one = checksumWithLanes(1);
    EXPECT_EQ(checksumWithLanes(2), one);
    EXPECT_EQ(checksumWithLanes(4), one);
    EXPECT_EQ(checksumWithLanes(7), one);
}

// --------------------------------------------------------------------
// parallelFor on the runtime directly
// --------------------------------------------------------------------

/** Every index of a 10000-wide loop runs exactly once, on a pool of
 *  every lane count; @p grain 0 picks the automatic chunk size. */
void
expectEveryIndexOnce(std::size_t grain)
{
    forEachPool([&](Runtime &rt) {
        constexpr std::size_t kN = 10000;
        std::vector<std::atomic<unsigned>> hits(kN);
        rt.parallelFor(
            0, kN,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    hits[i].fetch_add(1, std::memory_order_relaxed);
            },
            grain);
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    });
}

TEST(Runtime, ParallelForCoversEveryIndexExactlyOnce)
{
    expectEveryIndexOnce(/*grain=*/7);
}

TEST(Runtime, NestedParallelForRunsInline)
{
    forEachPool([&](Runtime &rt) {
        std::atomic<unsigned> outer{0};
        std::atomic<unsigned> inner{0};
        rt.parallelFor(0, 8, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                outer.fetch_add(1, std::memory_order_relaxed);
                const std::thread::id self = std::this_thread::get_id();
                rt.parallelFor(0, 4, [&](std::size_t nlo, std::size_t nhi) {
                    EXPECT_EQ(std::this_thread::get_id(), self);
                    inner.fetch_add(static_cast<unsigned>(nhi - nlo),
                                    std::memory_order_relaxed);
                });
            }
        });
        EXPECT_EQ(outer.load(), 8u);
        EXPECT_EQ(inner.load(), 32u);
    });
}

TEST(Runtime, ParallelForPropagatesFirstException)
{
    forEachPool([&](Runtime &rt) {
        std::atomic<unsigned> ran{0};
        EXPECT_THROW(
            rt.parallelFor(0, 1000,
                           [&](std::size_t lo, std::size_t hi) {
                               ran.fetch_add(static_cast<unsigned>(hi - lo),
                                             std::memory_order_relaxed);
                               if (lo == 0)
                                   throw std::runtime_error("chunk failed");
                           }),
            std::runtime_error);
        // The range still completes on a pool; the inline one-lane
        // path runs it as one call that throws.
        EXPECT_EQ(ran.load(), 1000u);
    });
}

TEST(Runtime, ParallelForRethrowsOnceWhenEveryChunkThrows)
{
    forEachPool([&](Runtime &rt) {
        for (int round = 0; round < 50; ++round) {
            std::atomic<std::size_t> ran{0};
            unsigned caught = 0;
            try {
                rt.parallelFor(
                    0, 256,
                    [&](std::size_t lo, std::size_t hi) {
                        ran.fetch_add(hi - lo, std::memory_order_relaxed);
                        throw std::runtime_error("chunk failure");
                    },
                    4);
            } catch (const std::runtime_error &e) {
                ++caught;
                EXPECT_STREQ(e.what(), "chunk failure");
            }
            EXPECT_EQ(caught, 1u);
            EXPECT_EQ(ran.load(), 256u); // every chunk was still claimed
        }
    });
}

// --------------------------------------------------------------------
// ThreadPool / ThreadPoolStress: the parallelFor cases of the former
// ThreadPool class, kept under their suite names and run on private
// pools of every lane count in kLaneCounts.
// --------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    expectEveryIndexOnce(/*grain=*/0);
}

TEST(ThreadPool, ParallelForHonorsNonZeroBegin)
{
    forEachPool([&](Runtime &rt) {
        std::atomic<std::size_t> sum{0};
        rt.parallelFor(100, 200, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                sum.fetch_add(i, std::memory_order_relaxed);
        });
        // sum of [100, 200) = (100+199)*100/2
        EXPECT_EQ(sum.load(), 14950u);
    });
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody)
{
    forEachPool([&](Runtime &rt) {
        bool called = false;
        rt.parallelFor(5, 5, [&](std::size_t, std::size_t) { called = true; });
        rt.parallelFor(7, 3, [&](std::size_t, std::size_t) { called = true; });
        EXPECT_FALSE(called);
    });
}

TEST(ThreadPool, ParallelForPropagatesFirstExceptionAndCompletes)
{
    forEachPool([&](Runtime &rt) {
        constexpr std::size_t kN = 512;
        std::vector<std::atomic<unsigned>> hits(kN);
        auto run = [&] {
            rt.parallelFor(
                0, kN,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        hits[i].fetch_add(1, std::memory_order_relaxed);
                    if (lo <= kN / 2 && kN / 2 < hi)
                        throw std::runtime_error("chunk boom");
                },
                /*grain=*/8);
        };
        EXPECT_THROW(run(), std::runtime_error);
        // The failing chunk must not strand the rest of the range.
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    });
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    forEachPool([&](Runtime &rt) {
        constexpr std::size_t kOuter = 64;
        constexpr std::size_t kInner = 100;
        std::vector<std::size_t> sums(kOuter, 0);
        rt.parallelFor(0, kOuter, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t o = lo; o < hi; ++o) {
                // A nested call from runtime work must degrade to a
                // plain serial loop instead of waiting on the pool.
                rt.parallelFor(0, kInner,
                               [&](std::size_t ilo, std::size_t ihi) {
                                   for (std::size_t i = ilo; i < ihi; ++i)
                                       sums[o] += i;
                               });
            }
        });
        for (std::size_t o = 0; o < kOuter; ++o)
            EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2);
    });
}

TEST(ThreadPool, SingleThreadPoolRunsInlineInOneCall)
{
    Runtime rt(1);
    EXPECT_EQ(rt.lanes(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    unsigned calls = 0;
    rt.parallelFor(3, 40, [&](std::size_t lo, std::size_t hi) {
        ++calls;
        EXPECT_EQ(lo, 3u);
        EXPECT_EQ(hi, 40u);
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
    EXPECT_EQ(calls, 1u); // no chunking on the serial reference path
}

TEST(ThreadPool, ManySequentialParallelFors)
{
    // Regression guard for job publication/unpublication races: the
    // same pool must survive many back-to-back loops with results
    // identical to serial accumulation.
    forEachPool([&](Runtime &rt) {
        std::size_t total = 0;
        for (unsigned round = 0; round < 200; ++round) {
            std::atomic<std::size_t> sum{0};
            rt.parallelFor(0, 97, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    sum.fetch_add(i + round, std::memory_order_relaxed);
            });
            total += sum.load();
        }
        std::size_t expect = 0;
        for (unsigned round = 0; round < 200; ++round)
            for (std::size_t i = 0; i < 97; ++i)
                expect += i + round;
        EXPECT_EQ(total, expect);
    });
}

TEST(ThreadPoolStress, NestedParallelForRunsEveryIteration)
{
    forEachPool([&](Runtime &rt) {
        constexpr std::size_t kOuter = 64;
        constexpr std::size_t kInner = 64;
        std::vector<std::atomic<int>> hits(kOuter * kInner);

        for (int round = 0; round < 10; ++round) {
            rt.parallelFor(
                0, kOuter,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t o = lo; o < hi; ++o) {
                        // Nested call: must degrade to inline
                        // execution, not deadlock on the pool.
                        rt.parallelFor(
                            0, kInner,
                            [&, o](std::size_t ilo, std::size_t ihi) {
                                for (std::size_t i = ilo; i < ihi; ++i)
                                    hits[o * kInner + i].fetch_add(
                                        1, std::memory_order_relaxed);
                            });
                    }
                },
                1);
        }
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 10) << "iteration " << i;
    });
}

TEST(ThreadPoolStress, SequentialParallelForsStayDeterministic)
{
    forEachPool([&](Runtime &rt) {
        std::vector<std::size_t> out(4096);
        for (int round = 0; round < 20; ++round) {
            rt.parallelFor(0, out.size(), [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    out[i] = i * i;
            });
            for (std::size_t i = 0; i < out.size(); ++i)
                ASSERT_EQ(out[i], i * i) << "index " << i;
        }
    });
}

} // namespace
} // namespace ansmet::runtime
