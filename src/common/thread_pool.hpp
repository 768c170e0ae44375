/**
 * @file
 * Persistent work-stealing thread pool for the software sorters.
 *
 * The behavioral sorter used to spawn and join a fresh std::thread set
 * for every merge stage; this pool replaces that churn with workers
 * that persist across all stages of a sort.  Work is published as a
 * *parallel-for job*: a task count plus a task function.  Workers (and
 * the submitting thread, which always participates) steal the next
 * unclaimed task index from the shared index space with a single
 * atomic fetch-add, so load balances dynamically no matter how uneven
 * the individual tasks are — the scheme FLiMS/Merge Path style slice
 * decomposition relies on to keep every core busy through both the
 * many-small-group early stages and the single-group final stage.
 *
 * Guarantees:
 *  - every index in [0, count) is executed exactly once;
 *  - parallelFor() returns only after all indices have finished AND
 *    every worker that observed the job has left the claiming loop
 *    (the active_ count below) — so a worker preempted between
 *    reading the job and its first claim can never claim indices of
 *    a later job or run a retired job's function;
 *  - a pool with threads() == 1 runs jobs inline with zero overhead
 *    (no workers are spawned);
 *  - jobs are data-race-free: claiming is a single acq_rel fetch-add
 *    and completion is released through the job mutex/condition
 *    variable — checked dynamically by TSan and statically by Clang's
 *    -Wthread-safety over the common/sync.hpp annotations (every
 *    job-state member is BONSAI_GUARDED_BY the pool mutex).
 *
 * The pool is also the only source of threads in the out-of-core
 * merge phase: merge groups and final-pass slices run as its tasks
 * and do their run I/O on the thread that merges.
 *
 * Jobs must not themselves call parallelFor on the same pool (no
 * nested parallelism); the sorter flattens group x slice work into one
 * task list per stage instead.  Lock discipline: the pool mutex is a
 * leaf lock — parallelFor and the worker loop never hold it while
 * running user tasks (see docs/ARCHITECTURE.md).
 */

#ifndef BONSAI_COMMON_THREAD_POOL_HPP
#define BONSAI_COMMON_THREAD_POOL_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/contract.hpp"
#include "common/sync.hpp"

namespace bonsai
{

class ThreadPool
{
  public:
    /** Execution width to use when the caller doesn't care: the
     *  hardware concurrency, with a small fallback when unknown. */
    static unsigned
    defaultThreads()
    {
        const unsigned hc = std::thread::hardware_concurrency();
        return hc == 0 ? 4 : hc;
    }

    /**
     * @param threads Total execution width, including the thread that
     *        calls parallelFor(); the pool spawns threads-1 workers.
     *        0 is treated as 1 (fully inline).
     */
    explicit ThreadPool(unsigned threads)
        : width_(threads == 0 ? 1 : threads)
    {
        workers_.reserve(width_ - 1);
        for (unsigned t = 0; t + 1 < width_; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            ScopedLock lock(mutex_);
            stop_ = true;
        }
        wake_.notifyAll();
        for (std::thread &worker : workers_)
            worker.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution width (worker count + the participating caller). */
    unsigned threads() const { return width_; }

    /**
     * Run @p fn(i) for every i in [0, count); blocks until all tasks
     * are done.  The caller participates, so the pool makes progress
     * even with zero workers.
     */
    void
    parallelFor(std::uint64_t count,
                const std::function<void(std::uint64_t)> &fn)
        BONSAI_EXCLUDES(mutex_)
    {
        if (count == 0)
            return;
        if (width_ == 1 || count == 1) {
            for (std::uint64_t i = 0; i < count; ++i)
                fn(i);
            return;
        }
        {
            ScopedLock lock(mutex_);
            fn_ = &fn;
            count_ = count;
            next_.store(0, std::memory_order_relaxed);
            pending_ = count;
            ++generation_;
        }
        wake_.notifyAll();
        runTasks(fn, count);
        {
            ScopedLock lock(mutex_);
            // Wait for all indices to finish AND all workers to leave
            // runTasks.  pending_ == 0 alone is not enough: a worker
            // that read this job but was preempted before its first
            // claim would otherwise survive into the next job's index
            // space, running this (by then dangling) fn against the
            // next job's indices.
            while (pending_ != 0 || active_ != 0)
                done_.wait(mutex_);
            fn_ = nullptr; // job retired; workers are back to waiting
        }
        BONSAI_ENSURE(next_.load(std::memory_order_relaxed) >= count,
                      "every task index must have been claimed");
    }

  private:
    /** Steal and run task indices until the index space is empty. */
    void
    runTasks(const std::function<void(std::uint64_t)> &fn,
             std::uint64_t count) BONSAI_EXCLUDES(mutex_)
    {
        std::uint64_t finished = 0;
        for (;;) {
            const std::uint64_t i =
                next_.fetch_add(1, std::memory_order_acq_rel);
            if (i >= count)
                break;
            fn(i);
            ++finished;
        }
        if (finished == 0)
            return;
        ScopedLock lock(mutex_);
        pending_ -= finished;
        if (pending_ == 0 && active_ == 0)
            done_.notifyAll();
    }

    void
    workerLoop() BONSAI_EXCLUDES(mutex_)
    {
        std::uint64_t seen = 0;
        for (;;) {
            const std::function<void(std::uint64_t)> *fn = nullptr;
            std::uint64_t count = 0;
            {
                ScopedLock lock(mutex_);
                while (!stop_ && !(generation_ != seen && fn_))
                    wake_.wait(mutex_);
                if (stop_)
                    return;
                seen = generation_;
                fn = fn_;
                count = count_;
                ++active_; // in runTasks from the caller's viewpoint
            }
            runTasks(*fn, count);
            {
                ScopedLock lock(mutex_);
                --active_;
                if (pending_ == 0 && active_ == 0)
                    done_.notifyAll();
            }
        }
    }

    const unsigned width_;
    std::vector<std::thread> workers_;

    Mutex mutex_;
    CondVar wake_; ///< job published / shutdown
    CondVar done_; ///< all tasks of the job finished
    const std::function<void(std::uint64_t)> *fn_
        BONSAI_GUARDED_BY(mutex_) = nullptr;
    std::uint64_t count_ BONSAI_GUARDED_BY(mutex_) = 0;
    std::uint64_t pending_ BONSAI_GUARDED_BY(mutex_) = 0;
    /** Workers currently inside runTasks. */
    std::uint64_t active_ BONSAI_GUARDED_BY(mutex_) = 0;
    std::uint64_t generation_ BONSAI_GUARDED_BY(mutex_) = 0;
    std::atomic<std::uint64_t> next_{0}; ///< shared task index space
    bool stop_ BONSAI_GUARDED_BY(mutex_) = false;
};

} // namespace bonsai

#endif // BONSAI_COMMON_THREAD_POOL_HPP
