/**
 * @file
 * Fork-join pool behind all host-side parallelism. The program's only
 * parallel traffic is parallelFor over an index range (ground truth,
 * HNSW build, ET profiling, the fetch precompute), so the pool runs
 * exactly that: one job at a time, split into chunks that the caller
 * and lanes() - 1 worker threads claim from one atomic cursor. Idle
 * workers sleep on a condition variable until the next job.
 *
 * Determinism contract for parallelFor bodies: results must not depend
 * on which lane ran a chunk or in which order chunks ran — write to
 * index-addressed slots, draw randomness from per-item common::Prng
 * streams, reduce in a canonical serial order. Under that contract
 * every figure is bitwise identical for any ANSMET_THREADS setting,
 * which CI asserts.
 *
 * Sizing: ANSMET_THREADS=n means n execution lanes — n - 1 worker
 * threads plus the calling thread. A one-lane pool spawns nothing and
 * runs every loop inline on the caller; that is the ANSMET_THREADS=1
 * reference path. The destructor wakes and joins every worker.
 */

#ifndef ANSMET_COMMON_RUNTIME_RUNTIME_H
#define ANSMET_COMMON_RUNTIME_RUNTIME_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace ansmet::runtime {

/** Runtime::currentWorker() of a thread that is not a pool worker. */
inline constexpr std::uint32_t kAnyLane = 0xffffffffu;

/** Largest lane count ANSMET_THREADS may ask for; larger values are
 *  clamped with a warning, so a typo cannot spawn thousands of threads. */
inline constexpr unsigned kMaxLanes = 256;

/**
 * Parse an ANSMET_THREADS value: the whole string must be a decimal
 * integer >= 1. Junk ("4abc", "", "-1", "0") warns and yields nullopt;
 * values above kMaxLanes (however many digits) warn and yield
 * kMaxLanes.
 */
[[nodiscard]] std::optional<unsigned> parseLanes(std::string_view text);

/** parseLanes(ANSMET_THREADS) if set and valid, else hardware
 *  concurrency (at least 1, at most kMaxLanes). */
unsigned configuredLanes();

class Runtime
{
  public:
    /** A pool of configuredLanes() lanes. */
    Runtime() : Runtime(configuredLanes()) {}
    /** A pool of @p lanes lanes, clamped to [1, kMaxLanes]. */
    explicit Runtime(unsigned lanes);
    ~Runtime(); // wakes and joins every worker

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Process-wide pool, sized by configuredLanes() at first use. */
    static Runtime &global();

    /** Execution lanes: worker threads + the calling thread, >= 1. */
    unsigned lanes() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Run body(begin, end) over [begin, end) split into chunks of
     * @p grain iterations (0 = auto). Blocks until every iteration has
     * run; the first exception from any chunk is rethrown here. The
     * caller participates, claiming chunks like a worker.
     *
     * Runs the whole range inline, as one runtime-work call, when the
     * pool has one lane, the range has one iteration, the caller is
     * already inside runtime work (nested calls, on any Runtime), or
     * another caller's job is in flight — a second external caller
     * never blocks on the first.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t, std::size_t)> &body,
                     std::size_t grain = 0);

    /** Worker index (0-based) of the calling thread within its pool,
     *  or kAnyLane when the caller is not a pool worker. */
    static std::uint32_t currentWorker();

  private:
    /** One parallelFor: chunk cursor shared by all lanes. */
    struct ForJob
    {
        std::size_t end = 0;
        std::size_t grain = 1;
        const std::function<void(std::size_t, std::size_t)> *body = nullptr;
        // Chunk-claim cursor and participant count. Both seq_cst: the
        // caller's completion test is "my claims exhausted the cursor
        // AND active == 0", and the single-total-order guarantee is
        // what proves a late runner can never claim a real chunk after
        // the caller observed that state (see runnerChunks()).
        std::atomic<std::size_t> next{0};
        std::atomic<unsigned> active{0};
        std::exception_ptr error ANSMET_GUARDED_BY(error_mu);
        Mutex error_mu;
        Mutex done_mu; //!< done_cv's mutex (predicate state is `active`)
        CondVar done_cv;
    };

    /** Sleep until a job is published, run its chunks, repeat. */
    void workerLoop(unsigned index);

    /** Claim-and-run chunks, bracketed by the active participant count. */
    static void runnerChunks(ForJob &job);
    /** The claim loop itself (caller and workers share it). */
    static void runChunks(ForJob &job);

    /** Whether an external caller's job owns the pool. acquire/release:
     *  the next owner sees the previous job fully unpublished. */
    std::atomic<bool> busy_{false};
    Mutex mu_;
    CondVar wake_; //!< workers sleep here; predicate: epoch_ / stopping_
    /** The published job; workers take a reference under mu_, so a
     *  late one keeps the job alive after the caller returned. */
    std::shared_ptr<ForJob> job_ ANSMET_GUARDED_BY(mu_);
    /** Bumped per published job; a worker runs each epoch once. */
    std::uint64_t epoch_ ANSMET_GUARDED_BY(mu_) = 0;
    bool stopping_ ANSMET_GUARDED_BY(mu_) = false;
    std::vector<std::thread> workers_; // last: the workers use the above
};

/** Convenience: Runtime::global().parallelFor(...). */
inline void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t, std::size_t)> &body,
            std::size_t grain = 0)
{
    Runtime::global().parallelFor(begin, end, body, grain);
}

} // namespace ansmet::runtime

#endif // ANSMET_COMMON_RUNTIME_RUNTIME_H
