#include "common/runtime/runtime.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "common/runtime/worker.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace ansmet::runtime {

namespace {

/** Polls before an idle worker parks / an idle waiter sleeps. Short on
 *  purpose: oversubscribed hosts (CI runners) should yield the core
 *  quickly, and the eventcount makes parking cheap to undo. */
constexpr unsigned kIdleSpins = 256;

// Worker index of the calling thread (kAnyLane for non-workers) and
// the "inside runtime work" flag that makes nested parallel sections
// run inline. Both are process-wide across Runtime instances on
// purpose: a private runtime's worker entering the global runtime must
// still take the inline path (the determinism tests' runSerial trick
// relies on exactly that).
thread_local std::uint32_t tls_worker_index = kAnyLane;
thread_local bool tls_in_runtime_work = false;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

void
pinToCore(unsigned core)
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(core, &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0)
        ANSMET_WARN("failed to pin runtime worker to its core");
#else
    (void)core;
#endif
}

} // namespace

// ---------------------------------------------------------------------------
// Worker

void
Worker::start()
{
    thread_ = std::thread([this] { loop(); });
}

void
Worker::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
Worker::loop()
{
    tls_worker_index = index_;
    if (pin_)
        pinToCore(core_);
    unsigned spins = 0;
    for (;;) {
        // Load stop *before* the dry sweep: exiting requires a sweep
        // that started after stop was visible, and the acquire pairs
        // with shutdown()'s store so every pre-shutdown push is
        // visible to that sweep — this is the drain guarantee.
        const bool stop = rt_.stopping_.load(std::memory_order_acquire);
        Task task;
        if (channel_.tryPop(task) || rt_.stealFor(index_, task)) {
            spins = 0;
            rt_.runTask(task);
            continue;
        }
        if (stop)
            return;
        if (++spins < kIdleSpins) {
            cpuRelax();
            continue;
        }
        spins = 0;
        rt_.parkIdle();
    }
}

// ---------------------------------------------------------------------------
// Runtime

Runtime::Runtime(RuntimeConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.cores.size() == 0)
        cfg_.cores = CoreSet::configured();
    const unsigned lanes = cfg_.cores.size();
    workers_.reserve(lanes - 1);
    for (unsigned w = 0; w + 1 < lanes; ++w)
        workers_.push_back(std::make_unique<Worker>(
            *this, w, cfg_.cores[w + 1], cfg_.cores.pinned(),
            cfg_.channelCapacity));
    // Start only after every channel exists: a worker's first steal
    // sweep touches all of them.
    for (auto &w : workers_)
        w->start();
}

Runtime::~Runtime() { shutdown(); }

Runtime &
Runtime::global()
{
    static Runtime rt;
    return rt;
}

std::uint32_t
Runtime::currentWorker()
{
    return tls_worker_index;
}

bool
Runtime::inRuntimeWork()
{
    return tls_in_runtime_work;
}

void
Runtime::runTask(Task &task)
{
    const bool was = tls_in_runtime_work;
    tls_in_runtime_work = true;
    if (task.group != nullptr) {
        TaskGroup *group = task.group;
        try {
            task.fn();
        } catch (...) {
            group->captureError();
        }
        tls_in_runtime_work = was;
        // Last touch of the group: after finishOne() the waiter may
        // destroy it (see TaskGroup::finishOne for the handshake).
        group->finishOne();
        return;
    }
    try {
        task.fn();
    } catch (...) {
        ANSMET_CHECK(false, "ungrouped runtime task threw an exception");
    }
    tls_in_runtime_work = was;
}

bool
Runtime::stealFor(unsigned thief, Task &out)
{
    if (!cfg_.steal)
        return false;
    const unsigned nw = numWorkers();
    // Victim order: topological neighbours first (CoreSet order), so a
    // steal preferably stays within the same core complex.
    for (unsigned k = 1; k < nw; ++k)
        if (workers_[(thief + k) % nw]->channel().tryPop(out))
            return true;
    return false;
}

bool
Runtime::helpOnce()
{
    Task task;
    for (auto &w : workers_) {
        if (w->channel().tryPop(task)) {
            runTask(task);
            return true;
        }
    }
    return false;
}

bool
Runtime::hasWork() const
{
    for (const auto &w : workers_)
        if (!w->channel().probablyEmpty())
            return true;
    return false;
}

void
Runtime::post(Task task)
{
    ANSMET_CHECK(!stopping_.load(std::memory_order_acquire),
                 "post on a stopped runtime");
    if (workers_.empty()) {
        // One-lane runtime: no channels, no parking — pure inline.
        runTask(task);
        return;
    }
    const unsigned nw = numWorkers();
    const unsigned home =
        task.affinity == kAnyLane
            ? rr_.fetch_add(1, std::memory_order_relaxed) % nw
            : task.affinity % nw;
    MpscChannel<Task> &ch = workers_[home]->channel();
    while (!ch.tryPush(std::move(task))) {
        // Bounded channel full. Never drop, never block on a lock:
        // a worker-producer runs the task inline (depth-first, the
        // same degradation a nested parallel section takes); an
        // external producer helps drain the home channel and retries.
        // (tryPush leaves `task` intact when it fails.)
        if (tls_in_runtime_work) {
            runTask(task);
            return;
        }
        if (cfg_.steal) {
            Task other;
            if (ch.tryPop(other)) {
                runTask(other);
                continue;
            }
        }
        cpuRelax();
    }
    signalWork();
}

void
Runtime::signalWork()
{
    // Store-buffer Dekker with parkIdle(). This side: push (done by
    // the caller), fence, load parked_. Worker side: store parked_,
    // fence, probe channels. The two seq_cst fences guarantee at
    // least one side observes the other — so either this producer
    // sees the parked worker (and bumps the epoch below), or the
    // parking worker's re-check sees the push. A push and a park can
    // never miss each other.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) == 0)
        return;
    {
        MutexLock lk(park_mu_);
        ++wake_epoch_;
    }
    park_cv_.notifyAll();
}

void
Runtime::parkIdle()
{
    std::uint64_t epoch = 0;
    {
        MutexLock lk(park_mu_);
        epoch = wake_epoch_;
    }
    // Announce the park, then re-check — the other half of the Dekker
    // handshake in signalWork(). The epoch was read *before* the
    // announce, so a producer that saw parked_ > 0 after our announce
    // necessarily bumps past `epoch` and the sleep predicate below
    // falls through.
    parked_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (hasWork() || stopping_.load(std::memory_order_acquire)) {
        parked_.fetch_sub(1, std::memory_order_relaxed);
        return;
    }
    {
        MutexLock lk(park_mu_);
        while (wake_epoch_ == epoch &&
               !stopping_.load(std::memory_order_relaxed) && !hasWork())
            park_cv_.wait(park_mu_);
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
}

void
Runtime::shutdown()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true,
                                           std::memory_order_seq_cst))
        return; // idempotent
    if (workers_.empty())
        return;
    {
        MutexLock lk(park_mu_);
        ++wake_epoch_;
    }
    park_cv_.notifyAll();
    // Drain-then-join: each worker exits only after a dry sweep that
    // started with stop already visible (see Worker::loop), and post()
    // rejects new work, so every accepted task has run by now.
    for (auto &w : workers_)
        w->join();
}

// ---------------------------------------------------------------------------
// parallelFor (chunk-claiming loop shared by the caller and runners)

void
Runtime::runChunksImpl(ForJob &job)
{
    ANSMET_DCHECK(job.grain > 0 && job.body,
                  "parallelFor job published without chunks");
    const bool was_in_work = tls_in_runtime_work;
    tls_in_runtime_work = true;
    for (;;) {
        const std::size_t i =
            job.next.fetch_add(job.grain, std::memory_order_seq_cst);
        if (i >= job.end)
            break;
        const std::size_t hi = std::min(i + job.grain, job.end);
        try {
            (*job.body)(i, hi);
        } catch (...) {
            MutexLock lk(job.error_mu);
            if (!job.error)
                job.error = std::current_exception();
            // Keep claiming chunks so the range always completes and
            // other participants are not left spinning; only the first
            // error is reported.
        }
    }
    tls_in_runtime_work = was_in_work;
}

void
Runtime::runnerChunks(ForJob &job)
{
    // The seq_cst choreography that keeps the caller's stack frame
    // (which owns the chunk body) safe: a runner increments `active`
    // before its first cursor claim, both seq_cst. The caller's
    // completion test — own claims exhausted the cursor, then
    // active == 0 (seq_cst load) — therefore orders, in the single
    // total order, any runner claim that could still see a real chunk
    // *before* that load, which forces the load to observe the
    // runner's increment and keeps the caller waiting. A runner whose
    // claim lands after the cursor is exhausted never dereferences
    // the body at all (the job itself is shared_ptr-kept).
    job.active.fetch_add(1, std::memory_order_seq_cst);
    runChunksImpl(job);
    if (job.active.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        MutexLock lk(job.done_mu);
        job.done_cv.notifyAll();
    }
}

void
Runtime::parallelFor(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)> &body,
    std::size_t grain)
{
    if (begin >= end)
        return;
    const std::size_t n = end - begin;
    if (workers_.empty() || tls_in_runtime_work || n == 1) {
        // One-lane runtime and nested calls: plain serial loop.
        body(begin, end);
        return;
    }
    if (grain == 0)
        grain = std::max<std::size_t>(1, n / (8 * lanes()));

    auto job = std::make_shared<ForJob>();
    job->end = n;
    job->grain = grain;
    // Chunk indices are offsets from `begin` so the atomic cursor can
    // start at zero.
    const std::function<void(std::size_t, std::size_t)> shifted =
        [&body, begin](std::size_t lo, std::size_t hi) {
            body(begin + lo, begin + hi);
        };
    job->body = &shifted;

    // One runner per worker, homed on its channel (affinity = w):
    // every lane gets the chance to claim chunks without a steal.
    const unsigned nw = numWorkers();
    for (unsigned w = 0; w < nw; ++w)
        post(Task{Task::Fn{[job] { runnerChunks(*job); }}, w});

    // The caller participates: it claims chunks like any worker, which
    // is what makes a busy runtime degrade to inline execution.
    runnerChunks(*job);

    {
        MutexLock lk(job->done_mu);
        // seq_cst: see runnerChunks(). Also pairs with the runners'
        // decrements so their chunk writes are visible once the count
        // drains to zero.
        while (job->active.load(std::memory_order_seq_cst) != 0)
            job->done_cv.wait(job->done_mu);
    }
    // Every chunk must have been claimed before the job is torn down;
    // a short cursor here would mean iterations were silently dropped.
    ANSMET_CHECK(job->next.load(std::memory_order_relaxed) >= job->end,
                 "parallelFor finished with unclaimed iterations");
    std::exception_ptr error;
    {
        MutexLock lk(job->error_mu);
        error = job->error;
    }
    if (error)
        std::rethrow_exception(error);
}

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::~TaskGroup()
{
    ANSMET_DCHECK(pending_.load(std::memory_order_acquire) == 0,
                  "TaskGroup destroyed with outstanding tasks");
}

void
TaskGroup::run(std::uint32_t affinity, Task::Fn fn)
{
    // Increment before post: the task may run inline (one-lane runtime
    // or backpressure) and finishOne() inside the call.
    pending_.fetch_add(1, std::memory_order_relaxed);
    rt_.post(Task{std::move(fn), affinity, this});
}

void
TaskGroup::captureError()
{
    MutexLock lk(error_mu_);
    if (!error_)
        error_ = std::current_exception();
}

void
TaskGroup::finishOne()
{
    // The decrement happens while holding done_mu_. That is what makes
    // the lock-free fast path in wait() safe: pending_ can only be
    // observed as 0 from inside this critical section, so a waiter
    // that saw 0 and then takes/releases done_mu_ cannot return (and
    // destroy the group) while the finishing thread still touches it.
    MutexLock lk(done_mu_);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        done_cv_.notifyAll();
}

void
TaskGroup::wait()
{
    const bool in_work = Runtime::inRuntimeWork();
    // A worker-waiter must help: its own channel may hold this very
    // group's tasks (or tasks the group transitively needs), and with
    // one worker nobody else would ever pop them. An external waiter
    // helps only when stealing is on — with steal=false the runtime
    // promises strict affinity placement, so outsiders keep hands off.
    const bool help = in_work || rt_.cfg_.steal;
    unsigned spins = 0;
    while (pending_.load(std::memory_order_acquire) != 0) {
        if (help && rt_.helpOnce()) {
            spins = 0;
            continue;
        }
        if (in_work || ++spins < kIdleSpins) {
            // Never park a worker inside a group wait; keep polling.
            cpuRelax();
            continue;
        }
        spins = 0;
        MutexLock lk(done_mu_);
        if (pending_.load(std::memory_order_acquire) != 0)
            done_cv_.wait(done_mu_);
    }
    // Fence out a finisher still inside finishOne()'s critical
    // section before the caller may destroy the group.
    { MutexLock lk(done_mu_); }
    std::exception_ptr error;
    {
        MutexLock lk(error_mu_);
        error = error_;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace ansmet::runtime
