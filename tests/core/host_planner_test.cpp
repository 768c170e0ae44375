/** @file Unit tests: the host planner's pass-count rule and booking. */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/record.hpp"
#include "core/host_planner.hpp"
#include "model/perf_model.hpp"
#include "sorter/merge_plan.hpp"

namespace bonsai
{
namespace
{

constexpr std::uint64_t kGensortBytes = 100;

/** Gensort records, which phase 2 may merge as key entries, or, with
 *  @p entries false, 100-byte records merged as themselves. */
core::HostPlan
planGensort(std::uint64_t records, std::uint64_t budget_kib,
            unsigned threads = 1, bool entries = true)
{
    const auto plan = core::planHostSort({.records = records,
                                          .recordBytes = kGensortBytes,
                                          .budgetBytes = budget_kib << 10,
                                          .threads = threads,
                                          .entries = entries});
    EXPECT_TRUE(plan.has_value());
    return plan.value_or(core::HostPlan{});
}

sorter::LaneItems
itemsOf(const core::HostPlan &plan, std::uint64_t bytes, bool entries)
{
    return {plan.batchRecords, bytes, entries};
}

/** Whether @p lanes lanes of fan-in @p ell at slot @p b, each booked
 *  at laneSlots (@p whole) or leastLaneSlots, fit what phase 1 frees
 *  less their arenas. */
bool
lanesFit(const core::HostPlan &plan, std::uint64_t ell, std::uint64_t lanes,
         std::uint64_t b, std::uint64_t bytes, bool entries, bool whole)
{
    const sorter::LaneItems items{b, bytes, entries};
    const std::uint64_t arenas = lanes * sorter::laneArenaBytes(ell, items);
    const std::uint64_t slots = whole ? sorter::laneSlots(ell, items)
                                      : sorter::leastLaneSlots(ell, items);
    return arenas < plan.phase1Bytes &&
        lanes * slots * b * bytes <= plan.phase1Bytes - arenas;
}

/** The planned slot is the largest, up to one transfer, at which the
 *  plan's lanes fit booked whole. */
void
expectLargestWholeSlot(const core::HostPlan &plan, bool entries)
{
    EXPECT_TRUE(lanesFit(plan, plan.ell, plan.lanes, plan.batchRecords,
                         kGensortBytes, entries, true));
    if (plan.batchRecords < sorter::kTransferBytes / kGensortBytes) {
        EXPECT_FALSE(lanesFit(plan, plan.ell, plan.lanes,
                              plan.batchRecords + 1, kGensortBytes, entries,
                              true));
    }
}

TEST(HostPlanner, NinetySixRunsMergeInOnePass)
{
    // The 4 MiB sort of 1M gensort records: 96 chunks of 10,485.
    // Phase 2 may book phase 1's three chunks.  Its one 96-way lane of
    // entry trees books 2 slots per run, the records its 126 node
    // blocks of 128 entries and its root pin (336 + 1 slots) and a
    // writer of one 128 KiB transfer (27 slots): 556 slots of 48
    // records, of the 560 the pool holds, so the sort takes one pass
    // from 4.8 KB reads.
    const core::HostPlan plan = planGensort(1'000'000, 4 << 10);
    EXPECT_EQ(plan.chunkRecords, 10'485u);
    EXPECT_EQ(plan.runs, 96u);
    EXPECT_EQ(plan.passes, 1u);
    EXPECT_EQ(plan.ell, 96u);
    EXPECT_EQ(plan.lanes, 1u);
    EXPECT_TRUE(plan.entries);
    EXPECT_EQ(plan.batchRecords, 48u);
    EXPECT_EQ(sorter::pinnedSlots(96, 48), 337u);
    EXPECT_EQ(sorter::laneSlots(96, itemsOf(plan, kGensortBytes, true)),
              2u * 96 + 337 + 27);
    EXPECT_EQ(plan.poolBytes, 560u * 48 * kGensortBytes);
    EXPECT_EQ(plan.passBytes, 1'000'000u * kGensortBytes);
    expectLargestWholeSlot(plan, true);
    // Three chunks in phase 1; in phase 2 the pool and one lane's
    // arena: 126 node blocks, 96 leaf batches and a root block of 128
    // entries.
    EXPECT_EQ(plan.phase1Bytes, 3u * 10'485 * kGensortBytes);
    EXPECT_EQ(plan.phase2Bytes,
              plan.poolBytes + (126u + 96 + 1) * 128 * sizeof(KeyEntry));
    EXPECT_LE(plan.phase2Bytes, plan.phase1Bytes);
}

TEST(HostPlanner, SlotFloorBuysASecondPassInsteadOfTinySlots)
{
    // 287 runs of 100-byte records merged as records: one 287-way
    // lane needs 576 slots beside its 510 node blocks of 32 records
    // (1.63 MB), which leave 26-record (2.6 KB) slots of the 3.1 MB
    // phase 1 frees.  The 4 KiB floor takes two passes at the
    // smallest fan-in that reaches them, 17 (17^2 = 289).
    const core::HostPlan plan = planGensort(3'000'000, 4 << 10, 1, false);
    EXPECT_EQ(plan.runs, 287u);
    EXPECT_FALSE(plan.entries);
    EXPECT_EQ(plan.passes, 2u);
    EXPECT_EQ(plan.ell, 17u);
    EXPECT_EQ(plan.batchRecords,
              (plan.phase1Bytes - sorter::arenaBytes(17, kGensortBytes)) /
                  (36 * kGensortBytes));
    EXPECT_GE(plan.batchRecords * kGensortBytes, core::kMinSlotBytes);
    EXPECT_LT((plan.phase1Bytes - sorter::arenaBytes(287, kGensortBytes)) /
                  (sorter::laneBuffers(287) * kGensortBytes) * kGensortBytes,
              core::kMinSlotBytes);
    // As entry trees, the 287-way tree's blocks alone pin 65,280
    // records, more than phase 1 frees: two passes as well.
    const core::HostPlan entries = planGensort(3'000'000, 4 << 10);
    EXPECT_TRUE(entries.entries);
    EXPECT_EQ(entries.passes, 2u);
    EXPECT_EQ(entries.ell, 17u);
    EXPECT_GT(510u * 128 * kGensortBytes, entries.phase1Bytes);
    expectLargestWholeSlot(entries, true);
}

TEST(HostPlanner, SlotStopsAtOneTransfer)
{
    // Six 16 MiB chunks: a 6-way lane could take far larger slots of
    // the 50 MB phase 1 frees, but a slot stops at 128 KiB.
    const core::HostPlan plan = planGensort(1'000'000, 64 << 10);
    EXPECT_EQ(plan.runs, 6u);
    EXPECT_EQ(plan.passes, 1u);
    EXPECT_EQ(plan.ell, 6u);
    EXPECT_EQ(plan.batchRecords, sorter::kTransferBytes / kGensortBytes);
}

TEST(HostPlanner, FewerPassesComeBeforeMoreLanes)
{
    // At four threads the 96-run pass still fits only one lane above
    // the floor — two lanes of 96-way entry trees would leave 2 KB
    // slots — and one pass on one lane beats two passes on four: the
    // 4-thread plan is the 1-thread one.  At 287 runs, two passes are
    // the fewest, and four 17-way lanes fit.
    const core::HostPlan one = planGensort(1'000'000, 4 << 10, 4);
    EXPECT_EQ(one.passes, 1u);
    EXPECT_EQ(one.lanes, 1u);
    EXPECT_TRUE(one.entries);
    EXPECT_EQ(one.batchRecords, 48u);
    EXPECT_FALSE(lanesFit(one, 96, 2, 41, kGensortBytes, true, false));
    const core::HostPlan two = planGensort(3'000'000, 4 << 10, 4);
    EXPECT_EQ(two.passes, 2u);
    EXPECT_EQ(two.ell, 17u);
    EXPECT_EQ(two.lanes, 4u);
    EXPECT_EQ(two.batchRecords, 49u);
    expectLargestWholeSlot(two, true);
}

TEST(HostPlanner, OneRunIsOneCopyPass)
{
    const core::HostPlan plan = planGensort(20'000, 16 << 10);
    EXPECT_EQ(plan.runs, 1u);
    EXPECT_EQ(plan.chunkRecords, 20'000u);
    EXPECT_EQ(plan.passes, 1u);
    EXPECT_EQ(plan.ell, 2u);
}

TEST(HostPlanner, EveryPlanIsTheFewestPassesWithinTheBudget)
{
    // Over budgets, thread counts, record widths and tree kinds: phase
    // 1 books at most the budget and phase 2 at most phase 1 (a
    // 2-record input, at most the least merge), the pool
    // holds the plan's lanes, the pass count is Equation 1's at the
    // plan's fan-in, that fan-in is the smallest reaching it, and a
    // 1-lane shape one pass shorter has no slot at the floor even at
    // its least booking.
    struct Items
    {
        std::uint64_t bytes;
        bool entries;
    };
    for (const Items it : {Items{16, false}, Items{100, false},
                           Items{100, true}}) {
        for (const std::uint64_t budget_kib :
             {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
            for (const unsigned threads : {1u, 2u, 4u, 8u}) {
                for (const std::uint64_t records :
                     {2u, 5'000u, 300'000u, 3'000'000u}) {
                    SCOPED_TRACE(::testing::Message()
                                 << it.bytes << "-byte records, entries "
                                 << it.entries << ", " << budget_kib
                                 << " KiB, " << threads << " thread(s), "
                                 << records);
                    const std::uint64_t budget = budget_kib << 10;
                    const auto plan = core::planHostSort(
                        {.records = records,
                         .recordBytes = it.bytes,
                         .budgetBytes = budget,
                         .threads = threads,
                         .entries = it.entries});
                    ASSERT_TRUE(plan.has_value());
                    EXPECT_TRUE(it.entries || !plan->entries);
                    const sorter::LaneItems items =
                        itemsOf(*plan, it.bytes, plan->entries);
                    EXPECT_LE(plan->phase1Bytes, budget);
                    EXPECT_LE(plan->phase2Bytes, budget);
                    // Only a few-record input books the least merge.
                    EXPECT_LE(plan->phase2Bytes,
                              std::max(plan->phase1Bytes,
                                       sorter::leastLaneSlots(
                                           2, {1, it.bytes, it.entries}) *
                                               it.bytes +
                                           sorter::laneArenaBytes(
                                               2, {1, it.bytes,
                                                   it.entries})));
                    if (records >= 5'000) {
                        EXPECT_LE(plan->phase2Bytes, plan->phase1Bytes);
                    }
                    EXPECT_EQ(plan->phase2Bytes,
                              plan->poolBytes +
                                  plan->lanes *
                                      sorter::laneArenaBytes(plan->ell,
                                                             items));
                    EXPECT_LE(plan->lanes, threads);
                    EXPECT_LE(sorter::leastLaneSlots(plan->ell, items) *
                                  plan->lanes * plan->batchRecords *
                                  it.bytes,
                              plan->poolBytes);
                    EXPECT_LE(plan->batchRecords * it.bytes,
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
                        const std::uint64_t floor =
                            (core::kMinSlotBytes + it.bytes - 1) / it.bytes;
                        // No tree the records can merge as has a
                        // shorter shape.  Where no 2-way lane of a
                        // tree fits at the floor, its floor is one
                        // record.
                        for (const bool entries : {it.entries, false}) {
                            const std::uint64_t least =
                                lanesFit(*plan, 2, 1, floor, it.bytes,
                                         entries, false)
                                ? floor
                                : 1;
                            EXPECT_FALSE(lanesFit(*plan, shorter, 1, least,
                                                  it.bytes, entries, false));
                        }
                    }
                }
            }
        }
    }
}

TEST(HostPlanner, SmallPoolsDropTheFloorAndTinyBudgetsHaveNoPlan)
{
    // A 24 KiB budget's phase 1 frees 18.3 KB, which holds no 2-way
    // lane of 4 KiB slots (six 4.1 KB slots, and an entry tree's 6 KB
    // arena beside them), so the floor gives way and the fewest passes
    // decide.  A 3-way entry tree's two node blocks alone pin 256
    // records (25.6 KB), so entry trees would merge the 17 runs of 61
    // records in five 2-way passes, even from one-record slots; a
    // 3-way tree of records (8 slots beside two 3.2 KB node blocks)
    // merges them in three, from 14-record slots.
    const auto small = core::planHostSort({.records = 1'000,
                                           .recordBytes = kGensortBytes,
                                           .budgetBytes = 24 << 10,
                                           .entries = true});
    ASSERT_TRUE(small.has_value());
    EXPECT_EQ(small->runs, 17u);
    EXPECT_FALSE(small->entries);
    EXPECT_EQ(small->passes, 3u);
    EXPECT_EQ(small->ell, 3u);
    EXPECT_EQ(small->batchRecords, 14u);
    EXPECT_LT(small->batchRecords * kGensortBytes, core::kMinSlotBytes);
    EXPECT_FALSE(lanesFit(*small, 3, 1, 1, kGensortBytes, true, false));
    // A 2 KiB budget's phase 1 frees 1.5 KB, less than one 2-way entry
    // lane's 6 KB arena.
    EXPECT_FALSE(core::planHostSort({.records = 1'000,
                                     .recordBytes = kGensortBytes,
                                     .budgetBytes = 2 << 10,
                                     .entries = true})
                     .has_value());
}

TEST(HostPlanner, RecordTreesOnlyWhereEntryTreesCostAPass)
{
    // 1,000 gensort records at 64 KiB: 7 runs of 163 records, and
    // phase 1 frees 48.9 KB.  A 3-way lane reaches two passes.  As an
    // entry tree it cannot keep 4 KiB slots: its two node blocks pin
    // 256 records, so beside its 12 KB arena it needs 15 slots of 41
    // records.  As a tree of records it needs 8 slots beside two
    // 3.2 KB node blocks: the plan merges records, in two passes from
    // 53-record slots, the plan of the records merged as themselves.
    const core::HostPlan records = planGensort(1'000, 64);
    EXPECT_EQ(records.runs, 7u);
    EXPECT_FALSE(records.entries);
    EXPECT_EQ(records.passes, 2u);
    EXPECT_EQ(records.ell, 3u);
    EXPECT_EQ(records.batchRecords, 53u);
    EXPECT_FALSE(lanesFit(records, 3, 1, 41, kGensortBytes, true, false));
    EXPECT_TRUE(lanesFit(records, 3, 1, 53, kGensortBytes, false, true));
    const core::HostPlan plain = planGensort(1'000, 64, 1, false);
    EXPECT_EQ(plain.passes, records.passes);
    EXPECT_EQ(plain.batchRecords, records.batchRecords);
    // Where both trees take as many passes, the entry tree's faster
    // merge wins over the records' larger slot (10,000 records at
    // 41 KiB: seven 2-way passes either way, 41-record slots against
    // 52) and over the records' extra lane (1M records at 4 MiB and
    // four threads: one pass, one lane against two).
    const core::HostPlan tie = planGensort(10'000, 41);
    EXPECT_TRUE(tie.entries);
    EXPECT_EQ(tie.passes, 7u);
    EXPECT_EQ(tie.batchRecords, 41u);
    EXPECT_EQ(planGensort(10'000, 41, 1, false).passes, 7u);
    EXPECT_EQ(planGensort(10'000, 41, 1, false).batchRecords, 52u);
    const core::HostPlan lanes = planGensort(1'000'000, 4 << 10, 4);
    EXPECT_TRUE(lanes.entries);
    EXPECT_EQ(lanes.lanes, 1u);
    EXPECT_EQ(planGensort(1'000'000, 4 << 10, 4, false).passes, 1u);
    EXPECT_EQ(planGensort(1'000'000, 4 << 10, 4, false).lanes, 2u);
}

} // namespace
} // namespace bonsai
