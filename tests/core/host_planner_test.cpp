/** @file Unit tests: the host planner's pass-count rule and booking. */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/host_planner.hpp"
#include "model/perf_model.hpp"
#include "sorter/merge_plan.hpp"

namespace bonsai
{
namespace
{

constexpr std::uint64_t kGensortBytes = 100;

core::HostPlan
planGensort(std::uint64_t records, std::uint64_t budget_mib,
            unsigned threads = 1)
{
    const auto plan = core::planHostSort({.records = records,
                                          .recordBytes = kGensortBytes,
                                          .budgetBytes = budget_mib << 20,
                                          .threads = threads});
    EXPECT_TRUE(plan.has_value());
    return plan.value_or(core::HostPlan{});
}

TEST(HostPlanner, NinetySixRunsMergeInOnePass)
{
    // The 4 MiB sort of 1M gensort records: 96 chunks of 10,485.  Its
    // 1 MiB pool holds one 96-way lane of 54-record slots (194 slots),
    // so the sort takes one pass, not the two of the F1's ell = 64.
    const core::HostPlan plan = planGensort(1'000'000, 4);
    EXPECT_EQ(plan.chunkRecords, 10'485u);
    EXPECT_EQ(plan.runs, 96u);
    EXPECT_EQ(plan.passes, 1u);
    EXPECT_EQ(plan.ell, 96u);
    EXPECT_EQ(plan.lanes, 1u);
    EXPECT_EQ(plan.batchRecords, 54u);
    EXPECT_EQ(plan.poolBytes, 194u * 54 * kGensortBytes);
    EXPECT_EQ(plan.passBytes, 1'000'000u * kGensortBytes);
    // Three chunks in phase 1; the pool and one 128-way tree's 126
    // node blocks of 32 records in phase 2.
    EXPECT_EQ(plan.phase1Bytes, 3u * 10'485 * kGensortBytes);
    EXPECT_EQ(plan.phase2Bytes,
              plan.poolBytes + 126u * 32 * kGensortBytes);
}

TEST(HostPlanner, SlotFloorBuysASecondPassInsteadOfTinySlots)
{
    // 287 runs in one pass would need 576 slots of 18 records (1.8 KB)
    // in the 1 MiB pool.  The 4 KiB floor takes two passes at the
    // smallest fan-in that reaches them, 17 (17^2 = 289), whose slots
    // are 291 records.
    const core::HostPlan plan = planGensort(3'000'000, 4);
    EXPECT_EQ(plan.runs, 287u);
    EXPECT_EQ(plan.passes, 2u);
    EXPECT_EQ(plan.ell, 17u);
    EXPECT_EQ(plan.batchRecords, (1u << 20) / (36 * kGensortBytes));
    EXPECT_GE(plan.batchRecords * kGensortBytes, core::kMinSlotBytes);
}

TEST(HostPlanner, SlotStopsAtOneTransfer)
{
    // Six 16 MiB chunks: a 6-way lane could take 11,983-record slots
    // from the 16 MiB pool, but a slot stops at 128 KiB.
    const core::HostPlan plan = planGensort(1'000'000, 64);
    EXPECT_EQ(plan.runs, 6u);
    EXPECT_EQ(plan.passes, 1u);
    EXPECT_EQ(plan.ell, 6u);
    EXPECT_EQ(plan.batchRecords, sorter::kTransferBytes / kGensortBytes);
}

TEST(HostPlanner, FewerPassesComeBeforeMoreLanes)
{
    // At four threads the 96-run pass fits only one lane above the
    // floor, and one pass on one lane beats two passes on four.  At
    // 287 runs, two passes are the fewest, and four 17-way lanes fit.
    const core::HostPlan one = planGensort(1'000'000, 4, 4);
    EXPECT_EQ(one.passes, 1u);
    EXPECT_EQ(one.lanes, 1u);
    const core::HostPlan two = planGensort(3'000'000, 4, 4);
    EXPECT_EQ(two.passes, 2u);
    EXPECT_EQ(two.ell, 17u);
    EXPECT_EQ(two.lanes, 4u);
    EXPECT_EQ(two.batchRecords, (1u << 20) / (36 * 4 * kGensortBytes));
}

TEST(HostPlanner, OneRunIsOneCopyPass)
{
    const core::HostPlan plan = planGensort(20'000, 16);
    EXPECT_EQ(plan.runs, 1u);
    EXPECT_EQ(plan.chunkRecords, 20'000u);
    EXPECT_EQ(plan.passes, 1u);
    EXPECT_EQ(plan.ell, 2u);
}

TEST(HostPlanner, EveryPlanIsTheFewestPassesWithinTheBudget)
{
    // Over budgets, thread counts and record widths: each phase books
    // at most the budget, the pool holds the plan's lanes, the pass
    // count is Equation 1's at the plan's fan-in, that fan-in is the
    // smallest reaching it, and a 1-lane shape one pass shorter either
    // has slots below the floor or books more than the budget.
    for (const std::uint64_t bytes : {16u, 100u}) {
        for (const std::uint64_t budget_kib :
             {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
            for (const unsigned threads : {1u, 2u, 4u, 8u}) {
                for (const std::uint64_t records :
                     {2u, 5'000u, 300'000u, 3'000'000u}) {
                    SCOPED_TRACE(::testing::Message()
                                 << bytes << "-byte records, "
                                 << budget_kib << " KiB, " << threads
                                 << " thread(s), " << records);
                    const std::uint64_t budget = budget_kib << 10;
                    const auto plan = core::planHostSort(
                        {.records = records,
                         .recordBytes = bytes,
                         .budgetBytes = budget,
                         .threads = threads});
                    ASSERT_TRUE(plan.has_value());
                    EXPECT_LE(plan->phase1Bytes, budget);
                    EXPECT_LE(plan->phase2Bytes, budget);
                    EXPECT_LE(plan->lanes, threads);
                    EXPECT_LE(sorter::laneBuffers(plan->ell) *
                                  plan->lanes * plan->batchRecords * bytes,
                              plan->poolBytes);
                    EXPECT_LE(plan->batchRecords * bytes,
                              sorter::kTransferBytes);
                    EXPECT_EQ(plan->passes,
                              std::max(1u, model::mergeStages(plan->runs,
                                                              plan->ell)));
                    if (plan->ell > 2) {
                        EXPECT_GT(model::mergeStages(plan->runs,
                                                     plan->ell - 1),
                                  plan->passes);
                    }
                    if (plan->passes > 1) {
                        unsigned shorter = plan->ell;
                        while (model::mergeStages(plan->runs, shorter) >=
                               plan->passes)
                            ++shorter;
                        const std::uint64_t pool = budget / core::kPoolShare;
                        const std::uint64_t slot =
                            pool / (sorter::laneBuffers(shorter) * bytes);
                        const bool too_small =
                            slot * bytes < core::kMinSlotBytes;
                        const bool over = slot > 0 &&
                            pool / (slot * bytes) * slot * bytes +
                                    sorter::arenaBytes(shorter, bytes) >
                                budget;
                        EXPECT_TRUE(too_small || over);
                    }
                }
            }
        }
    }
}

TEST(HostPlanner, SmallPoolsDropTheFloorAndTinyBudgetsHaveNoPlan)
{
    // A 64 KiB budget's 16 KiB pool cannot hold a 2-way lane of 4 KiB
    // slots, so the floor gives way and the fewest passes decide: the
    // 7 runs of 163 records merge in one pass from 10-record slots.
    const auto small = core::planHostSort({.records = 1'000,
                                           .recordBytes = kGensortBytes,
                                           .budgetBytes = 64 << 10});
    ASSERT_TRUE(small.has_value());
    EXPECT_EQ(small->runs, 7u);
    EXPECT_EQ(small->passes, 1u);
    EXPECT_EQ(small->ell, 7u);
    EXPECT_EQ(small->batchRecords, (16u << 10) / (16 * kGensortBytes));
    // A 2 KiB budget's 512-byte pool holds no 2-way lane of even
    // one-record slots (six slots, 600 bytes).
    EXPECT_FALSE(core::planHostSort({.records = 1'000,
                                     .recordBytes = kGensortBytes,
                                     .budgetBytes = 2 << 10})
                     .has_value());
}

} // namespace
} // namespace bonsai
