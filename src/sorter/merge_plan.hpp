/**
 * @file
 * Phase-2 merge planning: the Equation-10 buffer-budget shape.
 *
 * The shape derivation is the engine's resource model: a streamed
 * ell-way merge lane reserves laneBuffers(ell) = 2 ell + 2 buffers,
 * so W lanes of fan-in ell fit a pool of b-record buffers when
 * (2 ell + 2) * W <= buffers — the paper's b * ell on-chip buffer
 * bound (Eq. 10) generalized to W concurrent merge units.
 */

#ifndef BONSAI_SORTER_MERGE_PLAN_HPP
#define BONSAI_SORTER_MERGE_PLAN_HPP

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/contract.hpp"

namespace bonsai::sorter
{

/**
 * Pool buffers one phase-2 merge lane of fan-in @p ell reserves:
 * 2 per input run plus 2 for the output.  A lane merging inline
 * holds only ell + 1 (one per cursor, one for its writer), but the
 * reservation stays at 2 ell + 2 on purpose.  It fixes the effective
 * fan-in a budget admits, StagePlan groups runs at a stride that
 * depends on that fan-in, and so the order in which equal keys leave
 * the sort does too: a tighter reservation would admit a wider merge
 * on the same budget and change the output bytes.
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

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_PLAN_HPP
