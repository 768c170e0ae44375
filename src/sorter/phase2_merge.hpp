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
 * in-memory sort's kernel — whose leaves refill from cursors over its
 * runs (sorter/run_cursor.hpp), and whose root output goes to the
 * store or sink through one leased writer buffer, written whole in
 * one call.  A one-member group is a one-leaf tree.  Each pass sizes
 * the leases from the slots the Equation-10 shape reserves
 * (sorter/merge_plan.hpp passTransfer): the pass's concurrent groups
 * share them, so a pass that merges few runs at once reads and writes
 * in larger pieces.  The leases change only the size and the number
 * of the reads and writes, never the groups or the bytes.
 *
 * Records that are EntryKeyed (gensort records) merge as 16-byte key
 * entries, as in the in-memory sort, unless the records those entries
 * pin would cost the sort a pass (merge_plan.hpp phase2Shape): the
 * leaves' EntryCursors turn
 * each read into entries, every tree level moves entries through the
 * 8-item step, and the root's entries, a block at a time, are
 * gathered in output order into the writer buffer, whose whole
 * transfer (up to kTransferBytes) is one write.  Trees of records
 * refill from RunCursors, and their writer buffer has the reads' k
 * slots.
 *
 * Node blocks and entry batches come from one arena per merge lane,
 * outside the pool.  Every task reads and writes its runs on its own
 * thread: the buffered store and sink I/O underneath already reads
 * ahead and writes behind, so phase 2 starts no threads of its own.
 */

#ifndef BONSAI_SORTER_PHASE2_MERGE_HPP
#define BONSAI_SORTER_PHASE2_MERGE_HPP

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/record.hpp"
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

/** The node blocks and entry batches a merge lane lends its trees,
 *  outside the pool; each grows to the largest tree it serves. */
template <typename RecordT>
struct LaneArena
{
    RecordBuffer<RecordT> records;   ///< a record tree's node blocks
    RecordBuffer<KeyEntry> blocks;   ///< an entry tree's node blocks
    RecordBuffer<KeyEntry> batches;  ///< its leaf batches and root block
};

/** Records moved and I/O stalls of one merge group, accumulated
 *  race-free per task and folded into StreamStats after the join. */
struct MergeTally
{
    std::uint64_t moved = 0;
    double readStall = 0.0;
    double writeStall = 0.0;
};

/**
 * Stream-merge one group of runs from @p src into @p out through a
 * tree of records: leaves refill from one RunCursor per member of
 * @p t.readSlots slots, and the root fills a writer lease of
 * @p t.writeSlots slots, written whole to @p out.
 */
template <typename RecordT>
MergeTally
mergeRecordGroup(const io::RunStore<RecordT> &src,
                 std::span<const RunSpan> members,
                 io::RecordSink<RecordT> &out, io::BufferPool<RecordT> &pool,
                 const PassTransfer &t, LaneArena<RecordT> &arena)
{
    MergeTally tally;
    std::vector<RunCursor<RecordT>> cursors;
    cursors.reserve(members.size());
    for (const RunSpan &m : members)
        cursors.emplace_back(src, m, pool, t.readSlots);
    io::PoolLease<RecordT> writer(pool, t.writeSlots);
    MergeTree<RecordT> tree(
        members.size(),
        [&cursors](std::size_t i) { return cursors[i].next(); },
        &arena.records);
    RecordT *const first = writer.data();
    for (;;) {
        const auto n = static_cast<std::uint64_t>(
            tree.fill(first, first + writer.capacity()) - first);
        if (n == 0)
            break;
        addSeconds(tally.writeStall, [&] { out.write(first, n); });
        tally.moved += n;
    }
    for (const RunCursor<RecordT> &c : cursors)
        tally.readStall += c.stallSeconds();
    return tally;
}

/**
 * Stream-merge one group of runs from @p src into @p out through a
 * tree of key entries: leaves refill from one EntryCursor per member
 * of @p t.readSlots slots, whose entries' index packs the member above
 * the record's position in its run; the root fills one block of
 * entries at a time, whose records are gathered into a writer lease of
 * @p t.writeSlots slots, written to @p out each time it is full.  The
 * cursors may hold @p t.cursorSlots slots between them.
 */
template <EntryKeyed RecordT>
MergeTally
mergeEntryGroup(const io::RunStore<RecordT> &src,
                std::span<const RunSpan> members,
                io::RecordSink<RecordT> &out, io::BufferPool<RecordT> &pool,
                const PassTransfer &t, LaneArena<RecordT> &arena)
{
    const std::uint64_t m = members.size();
    const auto pos_bits = static_cast<unsigned>(
        KeyEntry::kIndexBits - std::bit_width(m - 1));
    const std::uint64_t pos_mask = (std::uint64_t{1} << pos_bits) - 1;
    // The root holds at most one slot of pinned records
    // (pinnedSlots).
    const std::uint64_t root =
        std::min(kStreamedBlockEntries, pool.batchRecords());
    const std::span<KeyEntry> batches =
        arena.batches.first(m * kStreamedBlockEntries + root);
    LeaseBooking booking{t.cursorSlots};
    std::vector<EntryCursor<RecordT>> cursors;
    cursors.reserve(m);
    for (std::uint64_t j = 0; j < m; ++j) {
        BONSAI_REQUIRE(members[j].length <= pos_mask + 1,
                       "an entry index holds the member and the "
                       "record's position in its run");
        cursors.emplace_back(
            src, members[j], pool, t.readSlots, j << pos_bits,
            batches.subspan(j * kStreamedBlockEntries,
                            kStreamedBlockEntries),
            booking);
    }
    io::PoolLease<RecordT> writer(pool, t.writeSlots);
    MergeTree<KeyEntry> tree(
        m, [&cursors](std::size_t i) { return cursors[i].next(); },
        &arena.blocks);
    KeyEntry *const entries = batches.data() + m * kStreamedBlockEntries;
    RecordT *const first = writer.data();
    MergeTally tally;
    std::uint64_t used = 0;
    for (;;) {
        const std::uint64_t room =
            std::min(root, writer.capacity() - used);
        const auto n = static_cast<std::uint64_t>(
            tree.fill(entries, entries + room) - entries);
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t index = entries[i].index();
            cursors[index >> pos_bits].take(index & pos_mask,
                                            first + used + i);
        }
        used += n;
        if (used > 0 && (used == writer.capacity() || n == 0)) {
            addSeconds(tally.writeStall, [&] { out.write(first, used); });
            tally.moved += used;
            used = 0;
        }
        if (n == 0)
            break;
    }
    for (const EntryCursor<RecordT> &c : cursors)
        tally.readStall += c.stallSeconds();
    return tally;
}

template <typename RecordT>
class Phase2Merger
{
  public:
    /**
     * @param bufs  The sort's bounded buffer pool; the shape was
     *        planned against its slots, and every pass's leases fit
     *        in them.
     * @param shape The budget-capped fan-in, the merge lanes the
     *        budget admits (they bound both group concurrency and
     *        final-pass slices) and the trees they merge.
     * @param pool  Compute pool the merge tasks are scheduled on.
     * @param trap  Sort-wide first-error latch.
     */
    Phase2Merger(io::BufferPool<RecordT> &bufs, const Phase2Shape &shape,
                 ThreadPool &pool, ErrorTrap &trap)
        : bufs_(&bufs), lanes_(shape.lanes), pool_(&pool), trap_(&trap),
          ell_(shape.ell), entries_(shape.entries)
    {
        BONSAI_REQUIRE(!entries_ || EntryKeyed<RecordT>,
                       "only EntryKeyed records merge as key entries");
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
    static void
    foldTally(const MergeTally &t, StreamStats &stats)
    {
        stats.recordsMoved += t.moved;
        stats.readStallSeconds += t.readStall;
        stats.writeStallSeconds += t.writeStall;
    }

    /** The leases of a pass that merges @p concurrent groups of at
     *  most @p widest members at once; its read and write sizes are
     *  recorded in @p stats. */
    PassTransfer
    passLeases(std::uint64_t concurrent, std::uint64_t widest,
               StreamStats &stats) const
    {
        const PassTransfer t = passTransfer(
            bufs_->buffers(), concurrent, widest,
            {bufs_->batchRecords(), sizeof(RecordT), entries_});
        stats.passTransferRecords.push_back(t.readSlots *
                                            bufs_->batchRecords());
        stats.passWriteRecords.push_back(t.writeSlots *
                                         bufs_->batchRecords());
        return t;
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
        const PassTransfer t = passLeases(width, groups.widest(), stats);
        std::vector<MergeTally> tallies(groups.count());
        std::atomic<std::size_t> next{0};
        // parallelFor tasks must not throw (a leaked exception kills a
        // pool worker), so trap the first error and rethrow it after
        // the join; later failures count as secondary.  A lane's trees
        // borrow its arena.
        pool_->parallelFor(width, [&](std::uint64_t) {
            try {
                LaneArena<RecordT> arena;
                for (;;) {
                    const std::size_t g = next.fetch_add(1);
                    if (g >= groups.count())
                        break;
                    const std::string ctx =
                        "phase-2 write-back of merge group " +
                        std::to_string(g);
                    io::RunStoreSink<RecordT> gsink(
                        dst, groups.output(g).offset, ctx.c_str());
                    tallies[g] =
                        mergeGroup(src, groups.members(g), gsink, t, arena);
                }
            } catch (...) {
                trap_->store(std::current_exception());
            }
        });
        trap_->rethrowIfSet();
        for (const MergeTally &tally : tallies)
            foldTally(tally, stats);
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
            LaneArena<RecordT> arena;
            foldTally(mergeGroup(src, members, sink,
                                 passLeases(1, members.size(), stats),
                                 arena),
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
        const PassTransfer leases =
            passLeases(slices, members.size(), stats);
        std::vector<MergeTally> tallies(slices);
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
                LaneArena<RecordT> arena;
                tallies[t] = mergeGroup(src, sub, seg, leases, arena);
            } catch (...) {
                trap_->store(std::current_exception());
            }
        });
        trap_->rethrowIfSet();
        for (const MergeTally &tally : tallies)
            foldTally(tally, stats);
    }

    /** Merge one group through the shape's trees: of key entries or
     *  of the records themselves. */
    MergeTally
    mergeGroup(const io::RunStore<RecordT> &src,
               std::span<const RunSpan> members,
               io::RecordSink<RecordT> &out, const PassTransfer &t,
               LaneArena<RecordT> &arena)
    {
        if constexpr (EntryKeyed<RecordT>)
            if (entries_)
                return mergeEntryGroup(src, members, out, *bufs_, t, arena);
        return mergeRecordGroup(src, members, out, *bufs_, t, arena);
    }

    io::BufferPool<RecordT> *bufs_;
    unsigned lanes_;
    ThreadPool *pool_;
    ErrorTrap *trap_;
    unsigned ell_;
    bool entries_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_PHASE2_MERGE_HPP
