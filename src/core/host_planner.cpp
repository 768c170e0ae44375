#include "core/host_planner.hpp"

#include <algorithm>
#include <limits>

#include "model/perf_model.hpp"
#include "sorter/merge_plan.hpp"

namespace bonsai::core
{

namespace
{

/** Equation-1 passes over @p runs runs at fan-in @p ell; a single run
 *  still takes the pass that copies it into the output. */
unsigned
passesAt(std::uint64_t runs, std::uint64_t ell)
{
    return std::max(1u, model::mergeStages(runs, static_cast<unsigned>(ell)));
}

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
        if (passesAt(runs, mid) <= passes)
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

    const std::uint64_t pool = in.budgetBytes / kPoolShare;
    const std::uint64_t most = std::max<std::uint64_t>(
        sorter::kTransferBytes / s, 1);
    const auto slot = [&](std::uint64_t ell, std::uint64_t lanes) {
        return std::min(pool / (sorter::laneBuffers(ell) * lanes * s),
                        most);
    };
    if (slot(2, 1) == 0)
        return std::nullopt;
    // A pool too small for a 2-way lane of 4 KiB slots has only small
    // slots to offer; then the fewest passes decide alone.
    std::uint64_t least = (kMinSlotBytes + s - 1) / s;
    if (slot(2, 1) < least)
        least = 1;

    const unsigned widest_passes = passesAt(plan.runs, 2);
    for (unsigned passes = 1; passes <= widest_passes; ++passes) {
        const std::uint64_t ell = smallestEll(plan.runs, passes);
        if (passesAt(plan.runs, ell) != passes)
            continue; // that fan-in already failed at fewer passes
        for (unsigned lanes = threads; lanes >= 1; --lanes) {
            const std::uint64_t b = slot(ell, lanes);
            if (b < least)
                continue;
            const std::uint64_t have = pool / (b * s);
            // The engine derives its lanes from the slots the same way.
            const sorter::Phase2Shape shape = sorter::phase2Shape(
                have, pool, static_cast<unsigned>(ell), threads);
            const std::uint64_t phase2 = have * b * s +
                shape.lanes * sorter::arenaBytes(ell, s);
            if (phase2 > in.budgetBytes)
                continue;
            plan.ell = shape.ell;
            plan.lanes = shape.lanes;
            plan.batchRecords = b;
            plan.poolBytes = have * b * s;
            plan.passes = passes;
            plan.phase2Bytes = phase2;
            return plan;
        }
    }
    return std::nullopt;
}

} // namespace bonsai::core
