#include "common/runtime/runtime.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <system_error>

#include "common/check.h"
#include "common/logging.h"

namespace ansmet::runtime {

namespace {

// Worker index of the calling thread (kAnyLane for non-workers) and
// the "inside runtime work" flag that makes nested parallel sections
// run inline. Both are process-wide across Runtime instances on
// purpose: work running on any pool — or inline as runtime work —
// that enters the global pool must take the inline path (the tests'
// runSerial helper relies on exactly that).
thread_local std::uint32_t tls_worker_index = kAnyLane;
thread_local bool tls_in_runtime_work = false;

/** Flags the calling thread as inside runtime work for one scope. */
class WorkScope
{
  public:
    WorkScope() : was_(tls_in_runtime_work) { tls_in_runtime_work = true; }
    ~WorkScope() { tls_in_runtime_work = was_; }

    WorkScope(const WorkScope &) = delete;
    WorkScope &operator=(const WorkScope &) = delete;

  private:
    bool was_;
};

} // namespace

std::optional<unsigned>
parseLanes(std::string_view text)
{
    unsigned long long v = 0;
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    // Out of range means too many digits: a valid, huge request.
    const bool huge = ec == std::errc::result_out_of_range;
    if (ptr != last || (ec != std::errc{} && !huge) || (!huge && v == 0)) {
        ANSMET_WARN("ignoring invalid ANSMET_THREADS value");
        return std::nullopt;
    }
    if (huge || v > kMaxLanes) {
        ANSMET_WARN("ANSMET_THREADS clamped to ", kMaxLanes);
        return kMaxLanes;
    }
    return static_cast<unsigned>(v);
}

unsigned
configuredLanes()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only config knob,
    // queried before any runtime thread exists; nothing mutates the env.
    if (const char *env = std::getenv("ANSMET_THREADS"))
        if (const std::optional<unsigned> lanes = parseLanes(env))
            return *lanes;
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, kMaxLanes);
}

Runtime::Runtime(unsigned lanes)
{
    lanes = std::clamp(lanes, 1u, kMaxLanes);
    workers_.reserve(lanes - 1);
    for (unsigned w = 0; w + 1 < lanes; ++w) {
        try {
            workers_.emplace_back([this, w] { workerLoop(w); });
        } catch (const std::system_error &) {
            // Results do not depend on the lane count: run with fewer.
            ANSMET_WARN("pool could not start worker ", w, "; running ",
                        w + 1, " lanes");
            break;
        }
    }
}

Runtime::~Runtime()
{
    {
        MutexLock lk(mu_);
        stopping_ = true;
    }
    wake_.notifyAll();
    for (std::thread &t : workers_)
        t.join();
}

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

void
Runtime::workerLoop(unsigned index)
{
    tls_worker_index = index;
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<ForJob> job;
        {
            MutexLock lk(mu_);
            while (epoch_ == seen && !stopping_)
                wake_.wait(mu_);
            if (stopping_)
                return;
            seen = epoch_;
            job = job_; // null when the caller already unpublished it
        }
        if (job)
            runnerChunks(*job);
    }
}

// ---------------------------------------------------------------------------
// parallelFor (chunk-claiming loop shared by the caller and workers)

void
Runtime::runChunks(ForJob &job)
{
    ANSMET_DCHECK(job.grain > 0 && job.body,
                  "parallelFor job published without chunks");
    const WorkScope in_work;
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
}

void
Runtime::runnerChunks(ForJob &job)
{
    // Keeps the caller's frame (which owns the body) safe: a runner
    // increments `active` before its first cursor claim, both seq_cst,
    // so in the single total order any claim that could still see a
    // real chunk precedes the caller's final `active == 0` load, which
    // then observes the increment and keeps the caller waiting. A late
    // runner's claim finds the cursor exhausted and never touches the
    // body (the job itself is shared_ptr-kept).
    job.active.fetch_add(1, std::memory_order_seq_cst);
    runChunks(job);
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
    // The exchange runs last, so only a caller that would otherwise
    // dispatch claims the pool; one that finds it busy runs inline.
    if (workers_.empty() || tls_in_runtime_work || n == 1 ||
        busy_.exchange(true, std::memory_order_acquire)) {
        const WorkScope in_work;
        body(begin, end);
        return;
    }
    if (grain == 0)
        grain = std::max<std::size_t>(1, n / (8 * lanes()));

    auto job = std::make_shared<ForJob>();
    job->end = n;
    job->grain = grain;
    // Chunks are offsets from `begin`, so the cursor starts at zero.
    const std::function<void(std::size_t, std::size_t)> shifted =
        [&body, begin](std::size_t lo, std::size_t hi) {
            body(begin + lo, begin + hi);
        };
    job->body = &shifted;

    {
        MutexLock lk(mu_);
        job_ = job;
        ++epoch_;
    }
    wake_.notifyAll();

    // The caller claims chunks too, so a loop ends even if no worker wakes.
    runnerChunks(*job);

    {
        MutexLock lk(job->done_mu);
        // seq_cst: see runnerChunks(). Also pairs with the runners'
        // decrements so their chunk writes are visible once the count
        // drains to zero.
        while (job->active.load(std::memory_order_seq_cst) != 0)
            job->done_cv.wait(job->done_mu);
    }
    {
        MutexLock lk(mu_);
        job_.reset();
    }
    busy_.store(false, std::memory_order_release);
    // Every chunk must have been claimed before the job is torn down;
    // a short cursor here would mean iterations were silently dropped.
    ANSMET_CHECK(job->next.load(std::memory_order_relaxed) >= job->end,
                 "parallelFor finished with unclaimed iterations");
    // Moved out so a worker dropping the job last never frees the exception.
    std::exception_ptr error;
    {
        MutexLock lk(job->error_mu);
        error = std::move(job->error);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace ansmet::runtime
