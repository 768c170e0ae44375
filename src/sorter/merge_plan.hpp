/**
 * @file
 * The streamed sort's shape rules: the phase-1 chunk, the Equation-10
 * buffer-budget shape, the per-pass transfer size and the merge trees'
 * node-block arenas.  The engine runs them, and the host planner
 * (core/host_planner.hpp) plans with the same functions, so a plan
 * cannot disagree with the sort it describes.
 *
 * The shape derivation is the engine's resource model: a streamed
 * ell-way merge lane reserves laneBuffers(ell) = 2 ell + 2 slots, so
 * W lanes of fan-in ell fit a pool of b-record slots when
 * (2 ell + 2) * W <= slots — the paper's b * ell on-chip buffer bound
 * (Eq. 10) generalized to W concurrent merge units.  The shape is
 * fixed for the whole sort; what a pass does with the reservation is
 * not: transferSlots() hands each cursor and writer of a pass k slots,
 * as many as the pass's concurrent groups leave room for.
 */

#ifndef BONSAI_SORTER_MERGE_PLAN_HPP
#define BONSAI_SORTER_MERGE_PLAN_HPP

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/contract.hpp"

namespace bonsai::sorter
{

/** Records per phase-1 chunk of a @p total-record input asked to
 *  chunk at @p chunk_records (0 = one chunk). */
constexpr std::uint64_t
chunkLength(std::uint64_t chunk_records, std::uint64_t total)
{
    return chunk_records == 0 ? total : std::min(chunk_records, total);
}

/**
 * Pool slots one phase-2 merge lane of fan-in @p ell reserves: 2 per
 * input run plus 2 for the output.  A lane merging inline leases one
 * buffer per cursor and one for its writer, each of k slots, where
 * transferSlots() picks k per pass so that the pass's leases fit the
 * slots the shape reserves.
 */
constexpr std::uint64_t
laneBuffers(std::uint64_t ell)
{
    return 2 * ell + 2;
}

/** Joint phase-2 shape admitted by the Equation-10 pool budget
 *  b * laneBuffers(ell) * W. */
struct Phase2Shape
{
    unsigned ell = 2;   ///< effective merge fan-in
    unsigned lanes = 1; ///< concurrent merge groups / final slices
};

/**
 * Joint (fan-in, lanes) derivation from @p have available batch
 * buffers.  Fan-in is maximized first (it cuts the number of storage
 * round trips, the dominant cost), then whatever budget is left
 * admits extra lanes, capped at @p threads.  Fails loudly (all build
 * types) when even one 2-way lane does not fit — blocking acquire()s
 * would otherwise deadlock mid-sort.  @p budget_bytes only labels the
 * failure message.
 */
inline Phase2Shape
phase2Shape(std::uint64_t have, std::uint64_t budget_bytes,
            unsigned phase2_ell, unsigned threads)
{
    if (have < laneBuffers(2))
        contracts::fail(
            "precondition", "bufs.buffers() >= 6", __FILE__, __LINE__,
            "buffer pool budget (" + std::to_string(budget_bytes) +
                " bytes) holds only " + std::to_string(have) +
                " batch buffer(s); a streaming merge needs at "
                "least 6 (2 per input run of a 2-way merge + 2 "
                "for write-back)");
    Phase2Shape shape;
    // The largest ell with laneBuffers(ell) <= have.
    shape.ell = static_cast<unsigned>(
        std::min<std::uint64_t>(phase2_ell, (have - 2) / 2));
    shape.lanes = static_cast<unsigned>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(threads,
                                   have / laneBuffers(shape.ell))));
    return shape;
}

/** Bytes at which a phase-2 transfer stops growing: buffered pread
 *  and pwrite cost little more per byte at 128 KiB than at 1 MiB,
 *  and larger buffers only cost fresh pages. */
inline constexpr std::uint64_t kTransferBytes = 128 << 10;

/**
 * Slots k each cursor and writer of one phase-2 pass leases, so a
 * transfer moves k * b records.  @p have is the shape's slot count
 * (the pool's, capped by the sort's allowance), @p concurrent the
 * groups or final-pass slices the pass merges at once and @p widest
 * the member count of its widest group: concurrent groups of at most
 * widest + 1 leases of k slots fit in have.  k is at least 1 (the
 * shape already fits one slot per lease) and stops growing at
 * kTransferBytes.
 */
constexpr std::uint64_t
transferSlots(std::uint64_t have, std::uint64_t concurrent,
              std::uint64_t widest, std::uint64_t batch_bytes)
{
    return std::max<std::uint64_t>(
        1, std::min(have / concurrent / (widest + 1),
                    kTransferBytes / batch_bytes));
}

/** Items per merge-tree node block: 2 KiB of @p item_bytes items,
 *  but never fewer than 32. */
constexpr std::uint64_t
nodeBlockItems(std::uint64_t item_bytes)
{
    return std::max<std::uint64_t>(32, 2048 / item_bytes);
}

/** Bytes of node blocks one merge tree over @p members inputs of
 *  @p item_bytes items holds: (ways - 2) blocks, ways being
 *  @p members rounded up to a power of two (MergeTree's arena). */
constexpr std::uint64_t
arenaBytes(std::uint64_t members, std::uint64_t item_bytes)
{
    std::uint64_t ways = 2;
    while (ways < members)
        ways *= 2;
    return (ways - 2) * nodeBlockItems(item_bytes) * item_bytes;
}

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_PLAN_HPP
