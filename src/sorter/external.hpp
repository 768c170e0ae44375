/**
 * @file
 * Out-of-core two-phase streaming sort engine (paper Section IV-C/D)
 * — the facade over the decomposed streaming-sort modules:
 *
 *   sorter/stream_stats.hpp   unified telemetry struct
 *   sorter/run_cursor.hpp     run cursors reading k * b records
 *                             into k-slot pool leases, as records or
 *                             as key entries
 *   sorter/merge_tree.hpp     the merge kernel of both phases
 *   sorter/merge_plan.hpp     Equation-10 shape, lane reservation and
 *                             per-pass transfer size
 *   sorter/splitter.hpp       out-of-core Merge Path boundary search
 *   sorter/phase1_spill.hpp   phase 1 as a two-buffer read/sort/spill
 *                             lockstep
 *   sorter/phase2_merge.hpp   phase 2 merge passes and the final pass
 *
 * Phase 1 streams fixed-size chunks from a RecordSource — load, sort
 * in place with the BehavioralSorter, spill to a RunStore — over two
 * chunk buffers in lockstep: while chunk k sorts in one buffer, a
 * two-thread I/O pool spills chunk k-1 from the other and reads chunk
 * k+1 into it (the paper's double-buffered data loader, writ large).
 *
 * Phase 2 runs ell-way merge passes that ping-pong runs between two
 * stores; every pass is one full storage round trip (the paper's SSD
 * round-trip cost unit).  Batch size b and the buffer budget mirror
 * Equation 10's b * ell on-chip buffer bound: fan-in AND the number
 * of concurrently merging lanes are jointly derived from the budget
 * (b * laneSlots(ell) * W buffers), so resident memory never
 * exceeds it.  Each lane merges a group through one MergeTree whose
 * leaves refill from run cursors — of key entries for gensort
 * records, of the records otherwise — and reads and writes its runs
 * on the thread that merges: each pass sizes its leases so that its
 * concurrent groups fill the slots the shape reserves.  The
 * final pass is splitter-partitioned into positioned sink segments —
 * byte-identical to the serial merge for any thread count, including
 * equal-key floods.
 *
 * sortInPlace() is the in-memory adapter and uses no run store: its
 * passes run BehavioralSorter::mergeRuns — the stage loop of the
 * Merge Path sliced, thread-parallel kernel — over the caller's
 * vector and one scratch buffer.  The streamed sort always merges
 * through the Phase2Merger, whether it spills to memory or file
 * stores.  Both merge contiguous run groups (sorter/run_groups.hpp)
 * through MergeTree, whose merges are stable, after a stable presort
 * (sorter/presort.hpp), so every sort emits std::stable_sort of its
 * input.  The budget, chunk size, fan-in, batch, thread count, store
 * and resume change the work, never the bytes.
 *
 * The streamed sort has one entry point, sortStream(const
 * SortRequest&).  A request picks the spill target: the caller's
 * front/back run stores, or, when durable.dir is set, named files
 * under a checkpointed job directory (sorter/checkpoint.hpp); the
 * choice never changes the emitted bytes.  Every sort owns one
 * BufferPool sized from bufferBudgetBytes and plans its phase-2 shape
 * against the pool's slots, so every lease it takes fits.
 */

#ifndef BONSAI_SORTER_EXTERNAL_HPP
#define BONSAI_SORTER_EXTERNAL_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/record_buffer.hpp"
#include "common/run.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/checkpoint.hpp"
#include "sorter/merge_plan.hpp"
#include "sorter/phase1_spill.hpp"
#include "sorter/phase2_merge.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

/**
 * One streamed sort: its endpoints and where it spills.  Every
 * referenced object must outlive the sort.
 */
template <typename RecordT>
struct SortRequest
{
    io::RecordSource<RecordT> *source = nullptr;
    io::RecordSink<RecordT> *sink = nullptr;
    /** Spill stores; unused (and may be null) when durable. */
    io::RunStore<RecordT> *front = nullptr;
    io::RunStore<RecordT> *back = nullptr;
    /** Checkpointing; an empty durable.dir spills to front/back. */
    DurableOptions durable = {};
};

/** The streaming two-phase sort engine. */
template <typename RecordT>
class StreamEngine
{
  public:
    struct Options
    {
        unsigned phase1Ell = 16;  ///< chunk-sort merge fan-in
        unsigned phase2Ell = 16;  ///< run-merge fan-in (pre-budget)
        std::uint64_t presortRun = 16;
        /** Records per phase-1 chunk, 0 = one chunk. */
        std::uint64_t chunkRecords = 0;
        std::uint64_t batchRecords = 1 << 14;   ///< b, in records
        std::uint64_t bufferBudgetBytes = 64ULL << 20;
        unsigned threads = 1;
    };

    explicit StreamEngine(Options opt) : opt_(opt)
    {
        BONSAI_REQUIRE(opt_.phase1Ell >= 2 && opt_.phase2Ell >= 2,
                       "merge fan-in must be at least 2");
    }

    /**
     * In-memory adapter: phase 1 sorts chunk ranges of @p data in
     * place, phase 2 merges the chunk runs with
     * BehavioralSorter::mergeRuns, ping-ponging between @p data and
     * one scratch buffer (Merge Path sliced passes), and copies the
     * result back only when the last pass lands in the scratch.
     * Byte-identical to the streamed path on the same input and
     * options.
     */
    StreamStats
    sortInPlace(std::vector<RecordT> &data) const
    {
        StreamStats stats;
        stats.recordsIn = data.size();
        // Unified telemetry with sortStream: the in-memory adapter
        // reports the same batch/budget knobs (what the equivalent
        // streamed run would be bounded by) even though its zero-copy
        // passes hold no pool buffers; effectiveEll is the fan-in it
        // actually merges with (memory passes are not budget-capped).
        stats.effectiveEll = opt_.phase2Ell;
        stats.batchRecords = opt_.batchRecords;
        stats.bufferPoolBytes = poolBudgetBytes();
        stats.concurrentGroups = opt_.threads;
        stats.finalSlices = opt_.threads;
        if (data.size() <= 1)
            return stats;
        ThreadPool pool(opt_.threads);

        const auto t1 = std::chrono::steady_clock::now();
        const std::uint64_t chunk = chunkOf(data.size());
        BehavioralSorter<RecordT> phase1(
            opt_.phase1Ell, opt_.presortRun, opt_.threads);
        std::vector<RunSpan> runs;
        {
            // Freed before phase 2 allocates its own scratch.
            RecordBuffer<RecordT> scratch;
            for (std::uint64_t lo = 0; lo < data.size(); lo += chunk) {
                const std::uint64_t len =
                    std::min<std::uint64_t>(chunk, data.size() - lo);
                const BehavioralStats s = phase1.sort(
                    std::span<RecordT>(data.data() + lo, len), pool,
                    scratch);
                stats.phase1RecordsMoved += s.recordsMoved;
                stats.recordsMoved += s.recordsMoved;
                runs.push_back(RunSpan{lo, len});
            }
        }
        stats.phase1Chunks = runs.size();
        stats.phase1Seconds = secondsSince(t1);
        if (runs.size() == 1)
            return stats; // one chunk is already the sorted output

        const auto t2 = std::chrono::steady_clock::now();
        // Never zero-filled: every pass writes its output before the
        // next reads it.
        RecordBuffer<RecordT> scratch;
        const std::span<RecordT> other = scratch.first(data.size());
        const BehavioralSorter<RecordT> merger(opt_.phase2Ell, 1,
                                               opt_.threads);
        const auto merged =
            merger.mergeRuns(std::move(runs), data, other, pool);
        stats.mergePasses = merged.stats.stages;
        stats.recordsMoved += merged.stats.recordsMoved;
        if (merged.out.data() == other.data())
            std::copy(other.begin(), other.end(), data.begin());
        stats.phase2Seconds = secondsSince(t2);
        return stats;
    }

    /**
     * Streamed sort of @p req.source into @p req.sink.  Resident
     * memory is bounded by two chunk buffers (plus one chunk of sort
     * scratch) and the batch buffer pool, independent of the dataset
     * size.  An empty source finishes the sink and returns before any
     * pool, store or job directory is touched.
     *
     * Pool: the sort draws its batch buffers from a pool of its own,
     * sized from Options::bufferBudgetBytes, and plans its phase-2
     * shape against that pool's slots.  Its concurrent holdings never
     * exceed them (each concurrent group holds at most its share,
     * sorter/merge_plan.hpp passTransfer); a lease beyond them is a
     * planning fault and fails loudly.
     *
     * Durable: with req.durable.dir set, spills live in named files
     * under that directory next to a versioned, checksummed job
     * manifest committed after every phase-1 chunk and every
     * non-final merge pass.  A re-invocation after a crash resumes
     * from the last committed unit of work (per req.durable.policy)
     * and produces output byte-identical to an uninterrupted run; the
     * resume telemetry lands in StreamStats::resumedChunks /
     * resumedPasses / manifestCommits / resumeFallback.  The caller
     * recreates the source and sink on every attempt — the sink is
     * truncated and fully rewritten by the (never journaled) final
     * pass.  Artifacts stay in the job directory after success;
     * callers that own the directory lifecycle (the file_sorter tool)
     * delete them once the output is durable.
     *
     * Failure contract: any I/O or task failure — a phase-1 step, a
     * merge group's read or write-back, a splitter probe, the sink —
     * unwinds to exactly one std::runtime_error thrown from here.
     * First error wins; failures of concurrent tasks behind it are
     * counted in StreamStats::secondaryErrors.  All pool buffers are
     * returned before the throw (lastPoolOutstanding() lets tests
     * assert that).
     */
    StreamStats
    sortStream(const SortRequest<RecordT> &req) const
    {
        BONSAI_REQUIRE(req.source != nullptr && req.sink != nullptr,
                       "a sort request needs a source and a sink");
        const std::uint64_t records_in = req.source->totalRecords();
        if (records_in == 0) {
            // Construct no pool and no job directory: an empty sort
            // succeeds under any budget, even one too small for a
            // single batch buffer.
            StreamStats stats;
            stats.batchRecords = opt_.batchRecords;
            req.sink->finish();
            return stats;
        }
        io::BufferPool<RecordT> bufs(opt_.batchRecords,
                                     opt_.bufferBudgetBytes);
        if (req.durable.dir.empty()) {
            BONSAI_REQUIRE(req.front != nullptr && req.back != nullptr,
                           "a sort without a checkpoint directory "
                           "needs front and back run stores");
            return sortStreamImpl(req, *req.front, *req.back, bufs,
                                  nullptr);
        }
        Checkpointer<RecordT> ckpt({.durable = req.durable,
                                    .params = manifestParams(records_in),
                                    .verifyBatchRecords =
                                        opt_.batchRecords});
        return sortStreamImpl(req, ckpt.front(), ckpt.back(), bufs,
                              &ckpt);
    }

    /** Plain streamed sort: spills to @p front / @p back. */
    StreamStats
    sortStream(io::RecordSource<RecordT> &source,
               io::RecordSink<RecordT> &sink,
               io::RunStore<RecordT> &front,
               io::RunStore<RecordT> &back) const
    {
        return sortStream(SortRequest<RecordT>{
            .source = &source, .sink = &sink, .front = &front,
            .back = &back});
    }

  private:
    /** The streamed-sort body over resolved stores and pool;
     *  @p ckpt == nullptr runs it unjournaled. */
    StreamStats
    sortStreamImpl(const SortRequest<RecordT> &req,
                   io::RunStore<RecordT> &front,
                   io::RunStore<RecordT> &back,
                   io::BufferPool<RecordT> &bufs,
                   Checkpointer<RecordT> *ckpt) const
    {
        StreamStats stats;
        stats.recordsIn = req.source->totalRecords();
        stats.batchRecords = opt_.batchRecords;
        ThreadPool pool(opt_.threads);
        stats.bufferPoolBytes = bufs.budgetBytes();
        const std::uint64_t chunk = chunkOf(stats.recordsIn);
        const Phase2Shape shape = phase2Shape(
            bufs.buffers(), bufs.budgetBytes(), opt_.phase2Ell, opt_.threads,
            (stats.recordsIn + chunk - 1) / chunk,
            laneItemsOf<RecordT>(bufs.batchRecords()));
        stats.effectiveEll = shape.ell;
        stats.concurrentGroups = shape.lanes;
        stats.entryTrees = shape.entries;

        // Sort-wide first-error latch: every phase-1 step and merge
        // task records into this one trap, so the caller sees exactly
        // one exception no matter how many lanes failed.
        ErrorTrap trap;
        try {
            if (ckpt == nullptr || !ckpt->phase1Complete()) {
                const BehavioralSorter<RecordT> phase1(
                    opt_.phase1Ell, opt_.presortRun, opt_.threads);
                Phase1Spiller<RecordT>::run(
                    *req.source, front, pool, phase1,
                    opt_.batchRecords, chunk, stats, trap, ckpt);
            } else {
                // Every chunk is journaled: phase 1 is pure replayed
                // history, with its runs already installed on the
                // journal's current store.
                stats.phase1Chunks = ckpt->chunksDone();
            }
            Phase2Merger<RecordT> merger(bufs, shape, pool, trap);
            merger.run(front, back, *req.sink, stats, ckpt);
        } catch (...) {
            trap.store(std::current_exception());
        }

        // Telemetry is valid on success and failure alike.
        stats.spillBytesWritten =
            front.bytesWritten() + back.bytesWritten();
        stats.spillBytesRead = front.bytesRead() + back.bytesRead();
        stats.bufferPoolPeakBytes = bufs.peakOutstanding() *
            bufs.batchRecords() * sizeof(RecordT);
        io::IoRetryStats retries = front.retryStats();
        retries += back.retryStats();
        stats.ioTransientRetries = retries.transientRetries;
        stats.ioEintrRetries = retries.eintrRetries;
        stats.ioShortTransfers = retries.shortTransfers;
        // The sink's write-behind kicks count too; its retries do not.
        retries += req.sink->retryStats();
        stats.ioWriteBackKicks = retries.writeBackKicks;
        stats.ioWriteBackSeconds = retries.writeBackSeconds;
        stats.secondaryErrors = trap.secondaryCount();
        if (ckpt != nullptr) {
            stats.resumedChunks = ckpt->resumedChunks();
            stats.resumedPasses = ckpt->resumedPasses();
            stats.manifestCommits = ckpt->commits();
            stats.resumeFallback = ckpt->fallbackReason();
        }
        lastSecondaryErrors_.store(stats.secondaryErrors,
                                   std::memory_order_relaxed);
        lastPoolOutstanding_.store(bufs.outstanding(),
                                   std::memory_order_relaxed);
        trap.rethrowIfSet();
        BONSAI_ENSURE(bufs.outstanding() == 0,
                      "buffer pool has outstanding buffers after "
                      "a clean streamed sort");
        return stats;
    }

  public:
    /** Pool buffers still outstanding when the last sortStream on
     *  this engine returned or threw — 0 unless the unwind leaked
     *  (tests assert this after injected faults). */
    std::uint64_t
    lastPoolOutstanding() const
    {
        return lastPoolOutstanding_.load(std::memory_order_relaxed);
    }

    /** Secondary (suppressed) errors of the last sortStream. */
    std::uint64_t
    lastSecondaryErrors() const
    {
        return lastSecondaryErrors_.load(std::memory_order_relaxed);
    }

  private:
    /** Records per phase-1 chunk of a @p total-record input
     *  (merge_plan.hpp chunkLength). */
    std::uint64_t
    chunkOf(std::uint64_t total) const
    {
        return chunkLength(opt_.chunkRecords, total);
    }

    /** The parameter echo a job manifest carries: everything chunk
     *  geometry and pass structure are a function of, so a resume
     *  against a changed request is refused instead of corrupting. */
    io::ManifestParams
    manifestParams(std::uint64_t records_in) const
    {
        io::ManifestParams p;
        p.recordBytes = sizeof(RecordT);
        p.recordsIn = records_in;
        p.chunkRecords = chunkOf(records_in);
        p.batchRecords = opt_.batchRecords;
        p.phase1Ell = opt_.phase1Ell;
        p.phase2Ell = opt_.phase2Ell;
        p.bufferBudgetBytes = opt_.bufferBudgetBytes;
        return p;
    }

    static double
    secondsSince(std::chrono::steady_clock::time_point start)
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

    /** Bytes a BufferPool with these options would be allowed to hold
     *  — telemetry for the in-memory adapter, computed without
     *  constructing a pool (which fails loudly on tiny budgets). */
    std::uint64_t
    poolBudgetBytes() const
    {
        const std::uint64_t batch_bytes =
            opt_.batchRecords * sizeof(RecordT);
        if (batch_bytes == 0)
            return 0;
        return (opt_.bufferBudgetBytes / batch_bytes) * batch_bytes;
    }

    Options opt_;
    /** Post-mortem telemetry of the last sortStream (relaxed: written
     *  once at the end of a sort, read by tests afterwards).  Mutable
     *  because a failed sort is still a const operation. */
    mutable std::atomic<std::uint64_t> lastPoolOutstanding_{0};
    mutable std::atomic<std::uint64_t> lastSecondaryErrors_{0};
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_EXTERNAL_HPP
