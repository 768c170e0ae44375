/**
 * @file
 * The streamed sort's shape rules: the phase-1 chunk, the Equation-10
 * buffer-budget shape, the per-pass transfers and the merge trees'
 * node-block arenas.  The engine runs them, and the host planner
 * (core/host_planner.hpp) plans with the same functions, so a plan
 * cannot disagree with the sort it describes.
 *
 * The shape derivation is the engine's resource model: a streamed
 * ell-way merge lane reserves laneSlots(ell) slots of b records, so W
 * lanes fit a pool of such slots when laneSlots(ell) * W <= slots —
 * the paper's b * ell on-chip buffer bound (Eq. 10) generalized to W
 * concurrent merge units.  A tree of records reserves
 * laneBuffers(ell) = 2 ell + 2: 2 per input run and 2 for its writer.
 * A tree of key entries (the records are EntryKeyed) reserves more:
 * an entry names a record that must stay in its leaf's read until the
 * root gathers it, so the lane also books the records whose entries
 * can wait in its node blocks and at its root (pinnedSlots), and it
 * books its writer a whole kTransferBytes transfer.  EntryKeyed
 * records merge as entries unless those pinned records cost a merge
 * pass that record trees of the same pool would save (phase2Shape).
 * The shape is
 * fixed for the whole sort; what a pass does with the reservation is
 * not: passTransfer() sizes each cursor's and writer's lease of a
 * pass from the slots its concurrent groups leave.
 */

#ifndef BONSAI_SORTER_MERGE_PLAN_HPP
#define BONSAI_SORTER_MERGE_PLAN_HPP

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/contract.hpp"
#include "common/record.hpp"

namespace bonsai::sorter
{

/** Records per phase-1 chunk of a @p total-record input asked to
 *  chunk at @p chunk_records (0 = one chunk). */
constexpr std::uint64_t
chunkLength(std::uint64_t chunk_records, std::uint64_t total)
{
    return chunk_records == 0 ? total : std::min(chunk_records, total);
}

/** Bytes at which a phase-2 transfer stops growing: buffered pread
 *  and pwrite cost little more per byte at 128 KiB than at 1 MiB,
 *  and larger buffers only cost fresh pages. */
inline constexpr std::uint64_t kTransferBytes = 128 << 10;

/** Items per merge-tree node block: 2 KiB of @p item_bytes items,
 *  but never fewer than 32. */
constexpr std::uint64_t
nodeBlockItems(std::uint64_t item_bytes)
{
    return std::max<std::uint64_t>(32, 2048 / item_bytes);
}

/** Entries per node block of a tree of key entries; also the most a
 *  streamed leaf hands out per batch and the root fills per gather. */
inline constexpr std::uint64_t kStreamedBlockEntries =
    nodeBlockItems(sizeof(KeyEntry));

/** Leaves of a merge tree over @p members inputs: @p members rounded
 *  up to a power of two, at least 2 (MergeTree's shape). */
constexpr std::uint64_t
treeWays(std::uint64_t members)
{
    std::uint64_t ways = 2;
    while (ways < members)
        ways *= 2;
    return ways;
}

/** What the trees of a phase-2 lane merge. */
struct LaneItems
{
    std::uint64_t batchRecords = 1; ///< pool slot b, in records
    std::uint64_t recordBytes = 1;  ///< bytes per record
    bool entries = false; ///< key entries (EntryKeyed records)

    constexpr std::uint64_t
    slotBytes() const
    {
        return batchRecords * recordBytes;
    }
};

/** The LaneItems of RecordT records in slots of @p batch_records. */
template <typename RecordT>
constexpr LaneItems
laneItemsOf(std::uint64_t batch_records)
{
    return {batch_records, sizeof(RecordT), EntryKeyed<RecordT>};
}

/**
 * Pool slots a lane of fan-in @p ell merging records reserves: 2 per
 * input run plus 2 for the output.  A lane merging inline leases one
 * buffer per cursor and one for its writer, each of k slots, where
 * passTransfer() picks k per pass so that the pass's leases fit the
 * slots the shape reserves.
 */
constexpr std::uint64_t
laneBuffers(std::uint64_t ell)
{
    return 2 * ell + 2;
}

/**
 * Slots an entry tree over @p members inputs pins beyond its cursors'
 * two leases each, at slot @p batch_records: the records whose
 * entries wait in its (ways - 2) node blocks, rounded up to whole
 * slots, and one slot for the entries its root holds for the gather
 * (at most min(kStreamedBlockEntries, b)).  A cursor then holds at
 * most 2 + e / (k b) leases of k slots when e of its records' entries
 * wait, which is where the 2 per member comes from.
 */
constexpr std::uint64_t
pinnedSlots(std::uint64_t members, std::uint64_t batch_records)
{
    const std::uint64_t waiting =
        (treeWays(members) - 2) * kStreamedBlockEntries;
    return (waiting + batch_records - 1) / batch_records + 1;
}

/** Slots of a writer lease of one whole transfer: kTransferBytes of
 *  records, at least one slot. */
constexpr std::uint64_t
wholeTransferSlots(const LaneItems &items)
{
    return std::max<std::uint64_t>(1, kTransferBytes / items.slotBytes());
}

/** Pool slots a lane of fan-in @p ell needs to merge at all: a record
 *  tree's laneBuffers(ell); an entry tree's 2 per input run, its
 *  pinned slots and one writer slot. */
constexpr std::uint64_t
leastLaneSlots(std::uint64_t ell, const LaneItems &items)
{
    if (!items.entries)
        return laneBuffers(ell);
    return 2 * ell + pinnedSlots(ell, items.batchRecords) + 1;
}

/** Pool slots a lane of fan-in @p ell books: the least, with an entry
 *  tree's writer grown to one whole transfer. */
constexpr std::uint64_t
laneSlots(std::uint64_t ell, const LaneItems &items)
{
    if (!items.entries)
        return laneBuffers(ell);
    return leastLaneSlots(ell, items) - 1 + wholeTransferSlots(items);
}

/** Equation-1 merge passes over @p runs runs at fan-in @p ell:
 *  ceil(log_ell runs), at least 1, since one pass copies a single run
 *  into the output. */
constexpr unsigned
mergePasses(std::uint64_t runs, std::uint64_t ell)
{
    unsigned passes = 1;
    for (std::uint64_t reach = ell; reach < runs; ++passes)
        reach = reach > runs / ell ? runs : reach * ell;
    return passes;
}

/** Joint phase-2 shape admitted by the Equation-10 pool budget
 *  b * laneSlots(ell) * W. */
struct Phase2Shape
{
    unsigned ell = 2;     ///< effective merge fan-in
    unsigned lanes = 1;   ///< concurrent merge groups / final slices
    bool entries = false; ///< the lanes' trees merge key entries
};

/**
 * Joint (fan-in, lanes, tree) derivation from @p have available pool
 * slots for the trees of @p items, over the @p runs runs phase 1
 * leaves.  Fan-in is maximized first (it cuts the number of storage
 * round trips, the dominant cost): the largest ell <= @p phase2_ell
 * whose lane fits at all.  Then whatever budget is left admits extra
 * lanes of laneSlots(ell), capped at @p threads.  Records that can
 * merge as key entries (@p items.entries) do, unless trees of the
 * records themselves, which pin no records in their node blocks,
 * reach a fan-in that takes fewer passes over the runs.  Fails
 * loudly (all build types) when even one 2-way lane does not fit —
 * every lease of the sort must fit the pool, and no smaller plan
 * exists; both trees need the same 6 slots there.  @p budget_bytes
 * only labels the failure message.
 */
inline Phase2Shape
phase2Shape(std::uint64_t have, std::uint64_t budget_bytes,
            unsigned phase2_ell, unsigned threads, std::uint64_t runs,
            const LaneItems &items)
{
    if (have < leastLaneSlots(2, items))
        contracts::fail(
            "precondition", "bufs.buffers() >= 6", __FILE__, __LINE__,
            "buffer pool budget (" + std::to_string(budget_bytes) +
                " bytes) holds only " + std::to_string(have) +
                " batch buffer(s); a streaming merge needs at "
                "least 6 (2 per input run of a 2-way merge + 2 "
                "for write-back)");
    const auto shapeOf = [&](const LaneItems &trees) {
        // laneBuffers(ell) <= leastLaneSlots(ell), so the search
        // starts at the largest ell a record tree could take.
        std::uint64_t ell =
            std::min<std::uint64_t>(phase2_ell, (have - 2) / 2);
        while (ell > 2 && leastLaneSlots(ell, trees) > have)
            --ell;
        return Phase2Shape{
            static_cast<unsigned>(ell),
            static_cast<unsigned>(std::clamp<std::uint64_t>(
                have / laneSlots(ell, trees), 1, threads)),
            trees.entries};
    };
    const Phase2Shape shape = shapeOf(items);
    if (!items.entries)
        return shape;
    const Phase2Shape records =
        shapeOf({items.batchRecords, items.recordBytes, false});
    return mergePasses(runs, records.ell) < mergePasses(runs, shape.ell)
        ? records
        : shape;
}

/** The leases of one merge group of a pass. */
struct PassTransfer
{
    std::uint64_t readSlots = 1;  ///< k: slots of each cursor's lease
    std::uint64_t writeSlots = 1; ///< slots of the writer's lease
    /** Most slots the group's cursors may hold at once: their own
     *  leases, and for an entry tree the leases its pinned records
     *  keep. */
    std::uint64_t cursorSlots = 1;
};

/**
 * The leases of each group of a pass that merges @p concurrent groups
 * or final-pass slices at once, the widest of @p widest members, from
 * @p have slots (the pool's, which the shape was planned against),
 * each group taking an equal share, so the pass's leases together
 * fit the pool.  A record tree's cursors and writer each take k
 * slots, as many as the share holds for widest + 1 leases (at least
 * 1: the shape fits one slot per lease).  An entry tree's share
 * first covers its least lane (one slot per lease, its pinned
 * slots), then grows its writer towards one whole transfer, then its
 * reads.  No lease grows past kTransferBytes.
 */
inline PassTransfer
passTransfer(std::uint64_t have, std::uint64_t concurrent,
             std::uint64_t widest, const LaneItems &items)
{
    const std::uint64_t most = wholeTransferSlots(items);
    const std::uint64_t share = have / concurrent;
    if (!items.entries) {
        const std::uint64_t k = std::max<std::uint64_t>(
            1, std::min(share / (widest + 1), most));
        return {k, k, widest * k};
    }
    const std::uint64_t least = leastLaneSlots(widest, items);
    BONSAI_REQUIRE(share >= least,
                   "every group of a pass fits the shape's least lane");
    std::uint64_t spare = share - least;
    const std::uint64_t write = 1 + std::min(spare, most - 1);
    spare -= write - 1;
    const std::uint64_t k = 1 + std::min(spare / (2 * widest), most - 1);
    return {k, write,
            2 * widest * k + pinnedSlots(widest, items.batchRecords)};
}

/** Bytes of node blocks one tree of records over @p members inputs of
 *  @p item_bytes holds: (ways - 2) blocks (MergeTree's arena). */
constexpr std::uint64_t
arenaBytes(std::uint64_t members, std::uint64_t item_bytes)
{
    return (treeWays(members) - 2) * nodeBlockItems(item_bytes) *
        item_bytes;
}

/** Bytes one lane of fan-in @p ell holds outside the pool: a record
 *  tree's node blocks; an entry tree's (ways - 2) node blocks, one
 *  entry batch per input run and the root's entries, a block each. */
constexpr std::uint64_t
laneArenaBytes(std::uint64_t ell, const LaneItems &items)
{
    if (!items.entries)
        return arenaBytes(ell, items.recordBytes);
    return (treeWays(ell) - 1 + ell) * kStreamedBlockEntries *
        sizeof(KeyEntry);
}

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_PLAN_HPP
