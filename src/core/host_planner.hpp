/**
 * @file
 * Host planner: the streamed sort's shape on the CPU that runs it —
 * the paper's Section IV optimizer, re-targeted at the host.
 *
 * core::planSsdSort plans the paper's two-phase sort for the F1: its
 * phase-2 fan-in is the FPGA's LUT limit (ell 64 for gensort) and its
 * batch the on-chip buffer bound.  A host merge lane has no LUT limit;
 * what bounds its fan-in is the batch pool, which must hold
 * laneBuffers(ell) = 2 ell + 2 slots of b records per lane (Eq. 10's
 * b * ell, sorter/merge_plan.hpp).  planHostSort enumerates
 * (phase-2 ell, b, lanes) the way the optimizer enumerates
 * (p, ell, lambda), and ranks the shapes by the Equation-1 pass count
 * ceil(log_ell R) over the R runs phase 1 leaves:
 *
 *  - fewest passes first: every pass is a full storage round trip;
 *  - then the most merge lanes, up to the thread count;
 *  - then the smallest fan-in that reaches that pass count, because
 *    it leaves the largest slot b.
 *
 * A slot holds at least kMinSlotBytes, so a one-pass shape cannot buy
 * its pass with slots too small to read efficiently (287 runs at a
 * 4 MiB budget would otherwise merge in one pass from 1.8 KB slots).
 * A pool that cannot hold even a 2-way lane of such slots has no
 * efficient slot to keep, so there the floor is one record.  A slot
 * holds at most sorter::kTransferBytes, the size at which a transfer
 * stops growing.
 *
 * The plan books each phase's resident bytes, and no phase may book
 * more than the budget:
 *  - phase 1: two chunk buffers plus the sort scratch (three chunks);
 *  - phase 2: the pool plus one merge tree's node-block arena per lane,
 *    (ways - 2) blocks, ways being the fan-in rounded up to a power of
 *    two.
 *
 * The chunk and the pool are fixed shares of the budget, not
 * enumerated.  The plan uses the engine's own rules
 * (sorter/merge_plan.hpp) for the chunk, the lane shape and the
 * arenas, so the shape it names is the one the engine runs.
 */

#ifndef BONSAI_CORE_HOST_PLANNER_HPP
#define BONSAI_CORE_HOST_PLANNER_HPP

#include <cstdint>
#include <optional>

namespace bonsai::core
{

/** A phase-1 chunk is a quarter of the budget: phase 1 holds two chunk
 *  buffers and one chunk of sort scratch.  A larger chunk would cut the
 *  run count, but it raises the resident peak of every sort whose
 *  phase 1 dominates it (a 64 MiB sort of 100 MB by about 30 %). */
inline constexpr std::uint64_t kChunkShare = 4;

/** The phase-2 batch pool is a quarter of the budget.  A pool of three
 *  quarters gave the 96-run, 4 MiB sort no more speed (b 162 instead
 *  of 54, the same single pass), and a smaller resident peak is worth
 *  more than larger reads. */
inline constexpr std::uint64_t kPoolShare = 4;

/** Fewest bytes a pool slot holds when the pool has room for a 2-way
 *  lane of them: one 4 KiB page. */
inline constexpr std::uint64_t kMinSlotBytes = 4096;

/** What a streamed sort is planned for. */
struct HostSortInputs
{
    std::uint64_t records = 0;     ///< records in the input
    std::uint64_t recordBytes = 0; ///< bytes per record on the host
    std::uint64_t budgetBytes = 0; ///< resident-memory budget
    unsigned threads = 1;          ///< compute threads (lane cap)
};

/** The host's streamed-sort shape and what it books. */
struct HostPlan
{
    std::uint64_t chunkRecords = 0; ///< phase-1 chunk, in records
    std::uint64_t runs = 0;         ///< runs phase 1 leaves, R
    unsigned ell = 0;               ///< phase-2 fan-in
    unsigned lanes = 0;             ///< concurrent merge lanes
    std::uint64_t batchRecords = 0; ///< pool slot b, in records
    std::uint64_t poolBytes = 0;    ///< the pool, whole slots
    /** Equation-1 passes ceil(log_ell R), at least 1: one pass copies
     *  a single run into the output. */
    unsigned passes = 0;
    std::uint64_t passBytes = 0;   ///< bytes each pass reads and writes
    std::uint64_t phase1Bytes = 0; ///< booked: two chunks plus scratch
    std::uint64_t phase2Bytes = 0; ///< booked: the pool plus the arenas
};

/**
 * Plan the streamed sort of @p in.  std::nullopt when no shape fits
 * the budget: phase 1's three chunks of one record each, or a 2-way
 * lane of one-record slots in the pool, do not fit.
 */
std::optional<HostPlan> planHostSort(const HostSortInputs &in);

} // namespace bonsai::core

#endif // BONSAI_CORE_HOST_PLANNER_HPP
