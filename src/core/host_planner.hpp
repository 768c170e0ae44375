/**
 * @file
 * Host planner: the streamed sort's shape on the CPU that runs it —
 * the paper's Section IV optimizer, re-targeted at the host.
 *
 * core::planSsdSort plans the paper's two-phase sort for the F1: its
 * phase-2 fan-in is the FPGA's LUT limit (ell 64 for gensort) and its
 * batch the on-chip buffer bound.  A host merge lane has no LUT limit;
 * what bounds its fan-in is the batch pool, which must hold
 * laneSlots(ell) slots of b records per lane (Eq. 10's b * ell,
 * sorter/merge_plan.hpp): 2 ell + 2 for a tree of records, and for a
 * tree of key entries also the records its node blocks pin and a
 * writer of one whole transfer.  planHostSort enumerates
 * (phase-2 ell, b, lanes) the way the optimizer enumerates
 * (p, ell, lambda), and ranks the shapes by the Equation-1 pass count
 * ceil(log_ell R) over the R runs phase 1 leaves:
 *
 *  - fewest passes first: every pass is a full storage round trip;
 *  - then trees of key entries over trees of records, for records
 *    that can merge as entries: the entry tree moves 16-byte items
 *    through the 8-item step, but its node blocks pin records, so at
 *    a small budget trees of records can save a pass;
 *  - then the most merge lanes, up to the thread count;
 *  - then the smallest fan-in that reaches that pass count, because
 *    it leaves the largest slot b.
 *
 * A slot holds at least kMinSlotBytes, so a one-pass shape cannot buy
 * its pass with slots too small to read efficiently (287 runs at a
 * 4 MiB budget would otherwise merge in one pass from tiny slots).
 * A pool that cannot hold even a 2-way lane of such slots has no
 * efficient slot to keep, so there the floor is one record.  A slot
 * holds at most sorter::kTransferBytes, the size at which a transfer
 * stops growing.  An entry tree's lane is booked with a whole-transfer
 * writer when the pool has room for it at such a slot, else with the
 * least writer it can merge with.
 *
 * The plan books each phase's resident bytes, and phase 2 books at
 * most what phase 1 does, so the resident peak is phase 1's:
 *  - phase 1: two chunk buffers plus the sort scratch (three chunks);
 *  - phase 2: the pool plus each lane's arena outside it (its node
 *    blocks and, for entry trees, its entry batches).  The pool is
 *    what phase 1 frees, less the arenas.  Only an input of a few
 *    records, whose three chunks hold less than the least streamed
 *    merge (a 2-way lane of one-record slots and its arena), books
 *    that least instead.
 *
 * The chunk is a fixed share of the budget, not enumerated.  The plan
 * uses the engine's own rules (sorter/merge_plan.hpp) for the chunk,
 * the lane shape and the arenas, so the shape it names is the one the
 * engine runs.
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
    /** The records are EntryKeyed, so phase-2 trees may merge them
     *  as key entries (sorter/merge_plan.hpp LaneItems). */
    bool entries = false;
};

/** The host's streamed-sort shape and what it books. */
struct HostPlan
{
    std::uint64_t chunkRecords = 0; ///< phase-1 chunk, in records
    std::uint64_t runs = 0;         ///< runs phase 1 leaves, R
    unsigned ell = 0;               ///< phase-2 fan-in
    unsigned lanes = 0;             ///< concurrent merge lanes
    bool entries = false;           ///< phase 2 merges key entries
    std::uint64_t batchRecords = 0; ///< pool slot b, in records
    std::uint64_t poolBytes = 0;    ///< the pool, whole slots
    /** Equation-1 passes ceil(log_ell R), at least 1: one pass copies
     *  a single run into the output. */
    unsigned passes = 0;
    std::uint64_t passBytes = 0;   ///< bytes each pass reads and writes
    std::uint64_t phase1Bytes = 0; ///< booked: two chunks plus scratch
    /** Booked: the pool plus the lanes' arenas; at most phase1Bytes
     *  unless that holds less than the least streamed merge. */
    std::uint64_t phase2Bytes = 0;
};

/**
 * Plan the streamed sort of @p in.  std::nullopt when no shape fits
 * the budget: phase 1's three chunks of one record each, or the least
 * streamed merge, do not fit.
 */
std::optional<HostPlan> planHostSort(const HostSortInputs &in);

} // namespace bonsai::core

#endif // BONSAI_CORE_HOST_PLANNER_HPP
