/**
 * @file
 * Phase-2 merge stage of the out-of-core sort: ell-way merge passes
 * ping-pong runs between two stores; the pass that collapses to a
 * single run streams into the sink instead.
 *
 * Parallel structure (TopSort-style merge units):
 *  - non-final passes merge the pass's contiguous run groups
 *    (sorter/run_groups.hpp) on up to W compute tasks, each taking
 *    the next group from a shared counter;
 *  - the final pass is cut into W key-space slices along splitters
 *    (sorter/splitter.hpp), each slice merging its own sub-runs and
 *    landing in the sink as a positioned segment at its exact output
 *    rank — byte-identical to the serial merge for any lane count,
 *    including equal-key floods.
 *
 * Every group or slice is one MergeTree (sorter/merge_tree.hpp) — the
 * in-memory sort's kernel — whose leaves refill from RunCursors, one
 * leased pool buffer per member, and whose root fills one more leased
 * buffer that is written to the store or sink whenever it is full.
 * A one-member group is a one-leaf tree.  Every buffer of a pass has
 * k slots (k * b records, sorter/merge_plan.hpp transferSlots): the
 * pass's concurrent groups of members + 1 buffers fill the slots the
 * Equation-10 shape reserves, so a pass that merges few runs at once
 * reads and writes in larger pieces.  k changes only the size and the
 * number of the reads and writes, never the groups or the bytes.
 * Trees merge the records themselves, not key entries (a leaf batch
 * is overwritten on refill), and node blocks come from one arena per
 * merge lane, outside the pool.  Every task reads and writes its runs on its own
 * thread: the buffered store and sink I/O underneath already reads
 * ahead and writes behind, so phase 2 starts no threads of its own.
 */

#ifndef BONSAI_SORTER_PHASE2_MERGE_HPP
#define BONSAI_SORTER_PHASE2_MERGE_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/record_buffer.hpp"
#include "common/run.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/checkpoint.hpp"
#include "sorter/merge_plan.hpp"
#include "sorter/merge_tree.hpp"
#include "sorter/run_cursor.hpp"
#include "sorter/run_groups.hpp"
#include "sorter/splitter.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class Phase2Merger
{
  public:
    /**
     * @param bufs  The sort's bounded buffer pool.
     * @param lanes Merge lanes the budget admits; bounds both group
     *        concurrency and final-pass slices.
     * @param pool  Compute pool the merge tasks are scheduled on.
     * @param trap  Sort-wide first-error latch.
     * @param ell   Effective fan-in (already budget-capped).
     * @param have  Pool slots the shape was planned against; every
     *        pass's leases fit in them.
     */
    Phase2Merger(io::BufferPool<RecordT> &bufs, unsigned lanes,
                 ThreadPool &pool, ErrorTrap &trap, unsigned ell,
                 std::uint64_t have)
        : bufs_(&bufs), lanes_(lanes), pool_(&pool), trap_(&trap),
          ell_(ell), have_(have)
    {
    }

    /** Merge passes from @p front/@p back into @p sink; fills the
     *  phase-2 fields of @p stats.
     *
     *  With a @p ckpt the pass sequence is re-entrant: it starts from
     *  whichever store the journal says holds the live runs (passes a
     *  previous attempt completed are never redone — the groups are a
     *  function of the run list and the fan-in, so the remaining
     *  sequence is identical), and every completed non-final pass is
     *  committed.
     *  The final pass is not journaled: its output lands in the
     *  caller's sink, which a resumed attempt recreates, so it is
     *  simply redone. */
    void
    run(io::RunStore<RecordT> &front, io::RunStore<RecordT> &back,
        io::RecordSink<RecordT> &sink, StreamStats &stats,
        Checkpointer<RecordT> *ckpt = nullptr)
    {
        const auto t2 = std::chrono::steady_clock::now();
        io::RunStore<RecordT> *stores[2] = {&front, &back};
        unsigned srcIdx = ckpt ? ckpt->currentStore() : 0;
        for (;;) {
            io::RunStore<RecordT> *src = stores[srcIdx];
            io::RunStore<RecordT> *dst = stores[1 - srcIdx];
            const RunGroups groups(src->runs(), ell_);
            if (groups.count() == 1) {
                finalPass(*src, groups.members(0), sink, stats);
                ++stats.mergePasses;
                break;
            }
            nonFinalPass(*src, *dst, groups, stats);
            const std::vector<RunSpan> out = groups.outputs();
            // Durability point: the next pass reads these runs back
            // assuming they reached the device.
            dst->flush("phase-2 merge pass flush");
            ++stats.mergePasses;
            dst->setRuns(out);
            src->setRuns({});
            if (ckpt != nullptr)
                ckpt->commitPass(1 - srcIdx, out);
            srcIdx = 1 - srcIdx;
        }
        sink.finish();
        stats.phase2Seconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t2)
                .count();
    }

  private:
    /** Stall/move tally of one merge task, accumulated race-free per
     *  task and folded into StreamStats after the join. */
    struct GroupTally
    {
        std::uint64_t moved = 0;
        double readStall = 0.0;
        double writeStall = 0.0;
    };

    static void
    foldTally(const GroupTally &t, StreamStats &stats)
    {
        stats.recordsMoved += t.moved;
        stats.readStallSeconds += t.readStall;
        stats.writeStallSeconds += t.writeStall;
    }

    /** Slots per lease of a pass that merges @p concurrent groups
     *  of at most @p widest members at once; recorded in @p stats. */
    std::uint64_t
    passSlots(std::uint64_t concurrent, std::uint64_t widest,
              StreamStats &stats) const
    {
        const std::uint64_t k = transferSlots(
            have_, concurrent, widest,
            bufs_->batchRecords() * sizeof(RecordT));
        stats.passTransferRecords.push_back(k * bufs_->batchRecords());
        return k;
    }

    /** One non-final pass: up to W tasks on the compute pool, each
     *  merging the next unclaimed group until none is left, so at
     *  most W groups hold pool buffers at once. */
    void
    nonFinalPass(io::RunStore<RecordT> &src, io::RunStore<RecordT> &dst,
                 const RunGroups &groups, StreamStats &stats)
    {
        const std::size_t width =
            std::min<std::size_t>(lanes_, groups.count());
        const std::uint64_t slots =
            passSlots(width, groups.widest(), stats);
        std::vector<GroupTally> tallies(groups.count());
        std::atomic<std::size_t> next{0};
        // parallelFor tasks must not throw (a leaked exception kills a
        // pool worker), so trap the first error and rethrow it after
        // the join; later failures count as secondary.  A lane's trees
        // borrow its arena for their node blocks.
        pool_->parallelFor(width, [&](std::uint64_t) {
            try {
                RecordBuffer<RecordT> arena;
                for (;;) {
                    const std::size_t g = next.fetch_add(1);
                    if (g >= groups.count())
                        break;
                    tallies[g] =
                        mergeOneGroup(src, groups, g, slots, dst, arena);
                }
            } catch (...) {
                trap_->store(std::current_exception());
            }
        });
        trap_->rethrowIfSet();
        for (const GroupTally &t : tallies)
            foldTally(t, stats);
    }

    /** Merge group @p g of @p groups into its output run in @p dst. */
    GroupTally
    mergeOneGroup(const io::RunStore<RecordT> &src,
                  const RunGroups &groups, std::uint64_t g,
                  std::uint64_t slots, io::RunStore<RecordT> &dst,
                  RecordBuffer<RecordT> &arena)
    {
        const std::string ctx =
            "phase-2 write-back of merge group " + std::to_string(g);
        io::RunStoreSink<RecordT> gsink(dst, groups.output(g).offset,
                                        ctx.c_str());
        return mergeGroup(src, groups.members(g), gsink, slots, &arena);
    }

    /** The final pass (one group, streaming to the sink): cut the
     *  key space into per-lane slices along splitters chosen in the
     *  augmented (key, run index, position) order and stitch the
     *  slices into the sink as positioned segments at their exact
     *  output ranks.  Falls back to the serial merge when the group
     *  is small or the sink cannot take positioned writes. */
    void
    finalPass(const io::RunStore<RecordT> &src,
              std::span<const RunSpan> members,
              io::RecordSink<RecordT> &sink, StreamStats &stats)
    {
        std::uint64_t total = 0;
        for (const RunSpan &m : members)
            total += m.length;
        // Below ~2 batches per slice the cut overhead outweighs the
        // parallelism; and without positioned segment support the
        // slices cannot land concurrently.
        std::uint64_t slices = std::min<std::uint64_t>(
            lanes_, total / (2 * bufs_->batchRecords()));
        if (!sink.supportsSegments())
            slices = 1;
        if (slices <= 1) {
            stats.finalSlices = 1;
            foldTally(mergeGroup(src, members, sink,
                                 passSlots(1, members.size(), stats)),
                      stats);
            return;
        }
        const std::vector<std::vector<std::uint64_t>> cuts =
            finalSliceCuts(src, members,
                           static_cast<unsigned>(slices), *bufs_);
        // Slice t's first output rank is the sum of its start cuts.
        std::vector<std::uint64_t> base(slices + 1, 0);
        for (std::uint64_t t = 0; t <= slices; ++t)
            for (std::size_t j = 0; j < members.size(); ++j)
                base[t] += cuts[t][j];
        BONSAI_ENSURE(base[slices] == total,
                      "splitter cuts must partition the final group");
        sink.beginSegments(total);
        stats.finalSlices = static_cast<unsigned>(slices);
        // The splitter's window lease is back: the slices have the
        // slots to themselves.
        const std::uint64_t slots =
            passSlots(slices, members.size(), stats);
        std::vector<GroupTally> tallies(slices);
        pool_->parallelFor(slices, [&](std::uint64_t t) {
            try {
                // Keep every member — empty sub-spans included — in
                // member order, so leaf indices (the equal-key tie
                // break) match the serial merge's.
                std::vector<RunSpan> sub;
                sub.reserve(members.size());
                for (std::size_t j = 0; j < members.size(); ++j)
                    sub.push_back(
                        RunSpan{members[j].offset + cuts[t][j],
                                cuts[t + 1][j] - cuts[t][j]});
                io::SegmentSink<RecordT> seg(sink, base[t]);
                tallies[t] = mergeGroup(src, sub, seg, slots);
            } catch (...) {
                trap_->store(std::current_exception());
            }
        });
        trap_->rethrowIfSet();
        for (const GroupTally &t : tallies)
            foldTally(t, stats);
    }

    /**
     * Stream-merge one group of runs from @p src into @p out: a merge
     * tree whose leaves refill from one RunCursor per member and whose
     * root fills one leased buffer at a time, written whole to
     * @p out.  The group holds members + 1 pool buffers of @p slots
     * slots each; its node blocks live in @p arena, or in the tree
     * when that is null (one tree per final-pass slice).
     */
    GroupTally
    mergeGroup(const io::RunStore<RecordT> &src,
               std::span<const RunSpan> members,
               io::RecordSink<RecordT> &out, std::uint64_t slots,
               RecordBuffer<RecordT> *arena = nullptr)
    {
        GroupTally tally;
        std::vector<RunCursor<RecordT>> cursors;
        cursors.reserve(members.size());
        for (const RunSpan &m : members)
            cursors.emplace_back(src, m, *bufs_, slots);
        io::PoolLease<RecordT> batch(*bufs_, slots);
        MergeTree<RecordT> tree(
            members.size(),
            [&cursors](std::size_t i) { return cursors[i].next(); },
            arena);
        RecordT *const first = batch.data();
        for (;;) {
            const auto n = static_cast<std::uint64_t>(
                tree.fill(first, first + batch.capacity()) - first);
            if (n == 0)
                break;
            addSeconds(tally.writeStall, [&] { out.write(first, n); });
            tally.moved += n;
        }
        for (const RunCursor<RecordT> &c : cursors)
            tally.readStall += c.stallSeconds();
        return tally;
    }

    io::BufferPool<RecordT> *bufs_;
    unsigned lanes_;
    ThreadPool *pool_;
    ErrorTrap *trap_;
    unsigned ell_;
    std::uint64_t have_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_PHASE2_MERGE_HPP
