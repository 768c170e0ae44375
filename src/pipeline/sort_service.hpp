/**
 * @file
 * SortService: several concurrent out-of-core sorts over one global
 * buffer-pool budget.
 *
 * Each job is an independent sorter::SortRequest; the service runs
 * every job as one task of a ThreadPool::parallelFor (one thread per
 * job) against a single BufferPool whose budget is the service-wide
 * memory bound, filling in each request's pool and allowance.  Fair budget
 * sharing falls out of the Equation-10 shape derivation: each job
 * plans its phase-2 shape against an equal allowance of
 * floor(buffers / jobs) pool buffers, and a job's concurrent holdings
 * never exceed its shape's lanes * laneBuffers(ell) <= allowance
 * buffers — so the per-job maxima sum to at most the pool supply and
 * blocking acquires cannot deadlock across jobs, while every job
 * always owns enough budget to make progress.  Too many jobs for the
 * budget (allowance < 6 buffers) fails loudly up front instead of
 * deadlocking mid-sort.
 *
 * Output equivalence: the augmented (key, run index, position) merge
 * order makes each job's output byte-identical to the same sort run
 * serially with a private pool — the shape only changes the pass
 * structure, never the emitted sequence.
 *
 * Error contract: first error wins across jobs.  A failing job does
 * not cancel the others (each task traps its own failure, and the
 * jobs share only the pool, whose unwind discipline returns every
 * buffer) — surviving jobs complete, then the first failure is
 * rethrown; later failures are counted as that trap's secondary
 * errors.  After all jobs finish, the shared pool must have zero
 * outstanding buffers.
 */

#ifndef BONSAI_PIPELINE_SORT_SERVICE_HPP
#define BONSAI_PIPELINE_SORT_SERVICE_HPP

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/contract.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "sorter/external.hpp"

namespace bonsai::pipeline
{

template <typename RecordT>
class SortService
{
  public:
    using Options = typename sorter::StreamEngine<RecordT>::Options;

    /** @p opt applies to every job; bufferBudgetBytes is the GLOBAL
     *  budget shared by all concurrent jobs, threads the per-job
     *  compute width. */
    explicit SortService(Options opt) : opt_(opt) {}

    /**
     * Run all of @p jobs concurrently; returns per-job telemetry,
     * index-aligned with @p jobs.  Throws the first job failure after
     * every job has finished (survivors are not cancelled — their
     * results are valid).
     *
     * Every object a request references must outlive run and belong
     * to that job alone; the service overwrites each request's pool
     * and allowance.  Checkpoint directories (durable.dir) must be
     * distinct across jobs — the job directory IS the job's identity
     * on disk, and a rerun of the service resumes each durable job
     * from its last committed chunk or merge pass.
     */
    std::vector<sorter::StreamStats>
    run(std::vector<sorter::SortRequest<RecordT>> jobs) const
    {
        std::vector<sorter::StreamStats> results(jobs.size());
        if (jobs.empty())
            return results;
        io::BufferPool<RecordT> bufs(opt_.batchRecords,
                                     opt_.bufferBudgetBytes);
        // Equal allowances: phase2Shape fails loudly inside a job if
        // its slice of the budget cannot hold one 2-way merge lane.
        const std::uint64_t allowance = bufs.buffers() / jobs.size();

        // One engine per job: an engine's post-mortem atomics are
        // per-sort state, and a shared instance would interleave them.
        std::vector<std::unique_ptr<sorter::StreamEngine<RecordT>>>
            engines;
        for (sorter::SortRequest<RecordT> &job : jobs) {
            engines.push_back(
                std::make_unique<sorter::StreamEngine<RecordT>>(
                    opt_));
            job.pool = &bufs;
            job.allowance = allowance;
        }

        // One thread per job.  A failed job is trapped, not
        // propagated, so it does not cancel its siblings.
        ErrorTrap trap;
        ThreadPool workers(static_cast<unsigned>(jobs.size()));
        workers.parallelFor(jobs.size(), [&](std::uint64_t i) {
            try {
                results[i] = engines[i]->sortStream(jobs[i]);
            } catch (...) {
                trap.store(std::current_exception());
            }
        });
        trap.rethrowIfSet();
        BONSAI_ENSURE(bufs.outstanding() == 0,
                      "shared buffer pool has outstanding buffers "
                      "after all sort jobs finished");
        return results;
    }

  private:
    Options opt_;
};

} // namespace bonsai::pipeline

#endif // BONSAI_PIPELINE_SORT_SERVICE_HPP
