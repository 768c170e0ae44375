#include "core/host_planner.hpp"

#include <algorithm>
#include <limits>

#include "sorter/merge_plan.hpp"

namespace bonsai::core
{

namespace
{

/** The smallest fan-in whose pass count over @p runs is at most
 *  @p passes. */
std::uint64_t
smallestEll(std::uint64_t runs, unsigned passes)
{
    std::uint64_t lo = 2;
    std::uint64_t hi = std::clamp<std::uint64_t>(
        runs, 2, std::numeric_limits<unsigned>::max());
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (sorter::mergePasses(runs, mid) <= passes)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace

std::optional<HostPlan>
planHostSort(const HostSortInputs &in)
{
    const std::uint64_t s = std::max<std::uint64_t>(in.recordBytes, 1);
    const std::uint64_t n = std::max<std::uint64_t>(in.records, 1);
    const unsigned threads = std::max(in.threads, 1u);

    HostPlan plan;
    plan.chunkRecords = sorter::chunkLength(
        std::max<std::uint64_t>(in.budgetBytes / kChunkShare / s, 1), n);
    plan.runs = (n + plan.chunkRecords - 1) / plan.chunkRecords;
    plan.passBytes = n * s;
    plan.phase1Bytes = 3 * plan.chunkRecords * s;
    if (plan.phase1Bytes > in.budgetBytes)
        return std::nullopt;

    const auto items = [&](std::uint64_t b, bool entries) {
        return sorter::LaneItems{b, s, entries};
    };
    // Phase 2 books at most what phase 1 does: its pool is what phase
    // 1 frees, less the lanes' arenas.  Only when three chunks hold
    // less than the least streamed merge (a 2-way lane of one-record
    // slots and its arena; an input of a few records) does it book
    // that least instead, within the budget.
    const std::uint64_t cap = std::max(
        plan.phase1Bytes,
        sorter::leastLaneSlots(2, items(1, in.entries)) * s +
            sorter::laneArenaBytes(2, items(1, in.entries)));
    if (cap > in.budgetBytes)
        return std::nullopt;
    const auto poolFor = [&](std::uint64_t ell, std::uint64_t lanes,
                             bool entries) {
        const std::uint64_t arenas =
            lanes * sorter::laneArenaBytes(ell, items(1, entries));
        return arenas < cap ? cap - arenas : 0;
    };
    // The largest slot, up to one transfer, at which `lanes` lanes of
    // fan-in ell fit their pool: booked whole, else at their least
    // (an entry tree's writer short of a whole transfer); 0 if none.
    const std::uint64_t most = std::max<std::uint64_t>(
        sorter::kTransferBytes / s, 1);
    const auto slot = [&](std::uint64_t ell, std::uint64_t lanes,
                          std::uint64_t floor, bool entries) {
        const std::uint64_t pool = poolFor(ell, lanes, entries);
        std::uint64_t best = 0;
        for (const bool whole : {true, false}) {
            std::uint64_t b = std::min(
                most, pool / (sorter::laneBuffers(ell) * lanes * s));
            for (; b > 0; --b) {
                const std::uint64_t per_lane = whole
                    ? sorter::laneSlots(ell, items(b, entries))
                    : sorter::leastLaneSlots(ell, items(b, entries));
                if (lanes * per_lane * b * s <= pool)
                    break;
            }
            best = b;
            if (best >= floor)
                break;
        }
        return best;
    };
    if (slot(2, 1, 1, in.entries) == 0)
        return std::nullopt;
    // Trees of entries are tried first; trees of records, only where
    // the entries' pinned records cost a pass.  A pool too small for
    // a 2-way lane of 4 KiB slots has only small slots to offer; then
    // the fewest passes decide alone.
    struct Trees
    {
        bool entries;
        std::uint64_t least;
    };
    Trees trees[2] = {{in.entries, 0}, {false, 0}};
    const std::size_t kinds = in.entries ? 2 : 1;
    for (std::size_t kind = 0; kind < kinds; ++kind) {
        Trees &t = trees[kind];
        t.least = (kMinSlotBytes + s - 1) / s;
        if (slot(2, 1, t.least, t.entries) < t.least)
            t.least = 1;
    }

    const unsigned widest_passes = sorter::mergePasses(plan.runs, 2);
    for (unsigned passes = 1; passes <= widest_passes; ++passes) {
        const std::uint64_t ell = smallestEll(plan.runs, passes);
        if (sorter::mergePasses(plan.runs, ell) != passes)
            continue; // that fan-in already failed at fewer passes
        for (std::size_t kind = 0; kind < kinds; ++kind) {
            const Trees &t = trees[kind];
            for (unsigned lanes = threads; lanes >= 1; --lanes) {
                const std::uint64_t b = slot(ell, lanes, t.least, t.entries);
                if (b < t.least)
                    continue;
                const std::uint64_t have =
                    poolFor(ell, lanes, t.entries) / (b * s);
                // The engine derives its lanes and trees from the
                // slots the same way.
                const sorter::Phase2Shape shape = sorter::phase2Shape(
                    have, have * b * s, static_cast<unsigned>(ell),
                    threads, plan.runs, items(b, in.entries));
                const std::uint64_t phase2 = have * b * s +
                    shape.lanes *
                        sorter::laneArenaBytes(shape.ell,
                                               items(b, shape.entries));
                if (phase2 > cap)
                    continue;
                plan.ell = shape.ell;
                plan.lanes = shape.lanes;
                plan.entries = shape.entries;
                plan.batchRecords = b;
                plan.poolBytes = have * b * s;
                plan.passes = passes;
                plan.phase2Bytes = phase2;
                return plan;
            }
        }
    }
    return std::nullopt;
}

} // namespace bonsai::core
