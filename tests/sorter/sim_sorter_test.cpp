/** @file End-to-end tests of the cycle-level simulated sorter. */

#include <gtest/gtest.h>

#include "common/checks.hpp"
#include "common/random.hpp"
#include "model/perf_model.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/sim_sorter.hpp"

namespace bonsai
{
namespace
{

sorter::SimSorter<Record>::Options
options(unsigned p, unsigned ell, unsigned unroll = 1)
{
    sorter::SimSorter<Record>::Options opts;
    opts.config = amt::AmtConfig{p, ell, unroll, 1};
    opts.mem.numBanks = 4;
    opts.mem.bankBytesPerCycle = 32.0;
    opts.mem.interleaveBytes = 1024;
    opts.mem.requestLatency = 8;
    opts.batchBytes = 1024;
    opts.recordBytes = 4;
    opts.presortRun = 16;
    return opts;
}

void
checkSimSort(std::size_t n, const sorter::SimSorter<Record>::Options &o,
             Distribution dist = Distribution::UniformRandom)
{
    auto data = makeRecords(n, dist);
    const Fingerprint before =
        fingerprint(std::span<const Record>(data));
    sorter::SimSorter<Record> sorter(o);
    const auto stats = sorter.sort(data);
    ASSERT_TRUE(stats.completed)
        << "cycle budget exceeded (deadlock?) n=" << n;
    EXPECT_TRUE(isSorted(std::span<const Record>(data)));
    EXPECT_EQ(before, fingerprint(std::span<const Record>(data)));
    if (n > 1) {
        EXPECT_GT(stats.totalCycles, 0u);
    }
}

struct SimShape
{
    unsigned p;
    unsigned ell;
    std::size_t n;
};

class SimShapes : public ::testing::TestWithParam<SimShape>
{
};

TEST_P(SimShapes, SortsRandomInput)
{
    checkSimSort(GetParam().n,
                 options(GetParam().p, GetParam().ell));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimShapes,
    ::testing::Values(SimShape{1, 2, 300}, SimShape{2, 4, 1000},
                      SimShape{4, 4, 4096}, SimShape{4, 16, 5000},
                      SimShape{8, 8, 10'000}, SimShape{8, 64, 20'000},
                      SimShape{16, 16, 30'000},
                      SimShape{32, 64, 50'000},
                      SimShape{32, 4, 10'000},
                      SimShape{1, 16, 2000}),
    [](const ::testing::TestParamInfo<SimShape> &param_info) {
        // Appended piecewise: GCC 12 flags chained operator+ on
        // std::string with a -Wrestrict false positive.
        std::string name = "p";
        name += std::to_string(param_info.param.p);
        name += "_ell";
        name += std::to_string(param_info.param.ell);
        name += "_n";
        name += std::to_string(param_info.param.n);
        return name;
    });

TEST(SimSorter, SortsAdversarialDistributions)
{
    for (Distribution dist :
         {Distribution::Sorted, Distribution::Reverse,
          Distribution::AllEqual, Distribution::FewDistinct}) {
        checkSimSort(3000, options(4, 8), dist);
    }
}

TEST(SimSorter, TinyInputs)
{
    for (std::size_t n : {0u, 1u, 2u, 15u, 16u, 17u}) {
        checkSimSort(n, options(4, 4));
    }
}

TEST(SimSorter, NonPowerOfTwoSize)
{
    checkSimSort(12'345, options(8, 16));
}

TEST(SimSorter, WithoutPresorter)
{
    auto o = options(4, 8);
    o.presortRun = 1;
    checkSimSort(2000, o);
}

TEST(SimSorter, UnrolledAddressRangeSorting)
{
    // 4 trees, each sorting a region, then the halving combine.
    checkSimSort(20'000, options(4, 4, /*unroll=*/4));
}

TEST(SimSorter, UnrolledHbmStyle16Trees)
{
    checkSimSort(16'000, options(4, 2, /*unroll=*/16));
}

TEST(SimSorter, CycleCountIsDataOblivious)
{
    // Merge trees stream every record through every stage regardless
    // of key distribution; with alternating tie-breaks in the
    // mergers, cycle counts across distributions stay within a few
    // percent (this is what lets Equation 1 omit a distribution
    // term).
    const std::size_t n = 200'000;
    std::uint64_t min_cycles = ~0ULL, max_cycles = 0;
    for (Distribution dist :
         {Distribution::UniformRandom, Distribution::Sorted,
          Distribution::Reverse, Distribution::AllEqual,
          Distribution::FewDistinct}) {
        auto data = makeRecords(n, dist);
        sorter::SimSorter<Record> sim(options(8, 16));
        const auto stats = sim.sort(data);
        ASSERT_TRUE(stats.completed);
        min_cycles = std::min(min_cycles, stats.totalCycles);
        max_cycles = std::max(max_cycles, stats.totalCycles);
    }
    // A small residual remains (tuple-granular tie alternation is
    // not perfectly balanced at run boundaries): allow 15%.
    EXPECT_LT(static_cast<double>(max_cycles - min_cycles) /
                  static_cast<double>(min_cycles),
              0.15);
}

TEST(SimSorter, RangePartitionedUnrolling)
{
    auto o = options(4, 4, /*unroll=*/4);
    o.unrollMode = sorter::UnrollMode::RangePartitioned;
    checkSimSort(20'000, o);
}

TEST(SimSorter, RangePartitionedManyTrees)
{
    auto o = options(4, 2, /*unroll=*/16);
    o.unrollMode = sorter::UnrollMode::RangePartitioned;
    checkSimSort(30'000, o);
}

TEST(SimSorter, RangePartitionedSkewedKeys)
{
    auto o = options(4, 4, /*unroll=*/4);
    o.unrollMode = sorter::UnrollMode::RangePartitioned;
    checkSimSort(10'000, o, Distribution::FewDistinct);
    checkSimSort(10'000, o, Distribution::AllEqual);
}

TEST(SimSorter, RangeModeSkipsCombineStages)
{
    // Address-range unrolling pays combining stages; range
    // partitioning does not.
    const std::size_t n = 40'000;
    auto addr = options(4, 4, 4);
    auto range = options(4, 4, 4);
    range.unrollMode = sorter::UnrollMode::RangePartitioned;
    auto d1 = makeRecords(n, Distribution::UniformRandom);
    auto d2 = d1;
    sorter::SimSorter<Record> s_addr(addr);
    sorter::SimSorter<Record> s_range(range);
    const auto st_addr = s_addr.sort(d1);
    const auto st_range = s_range.sort(d2);
    ASSERT_TRUE(st_addr.completed);
    ASSERT_TRUE(st_range.completed);
    EXPECT_LT(st_range.stages, st_addr.stages);
    EXPECT_LT(st_range.totalCycles, st_addr.totalCycles);
    EXPECT_TRUE(isSorted(std::span<const Record>(d2)));
}

TEST(SimSorter, MatchesBehavioralResult)
{
    auto data = makeRecords(8000, Distribution::UniformRandom, 3);
    auto behavioral = data;
    sorter::SimSorter<Record> sim(options(8, 16));
    sim.sort(data);
    sorter::BehavioralSorter<Record> soft(16, 16);
    soft.sort(behavioral);
    ASSERT_EQ(data.size(), behavioral.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(data[i].key, behavioral[i].key) << i;
}

TEST(SimSorter, StageCountMatchesModel)
{
    auto data = makeRecords(20'000, Distribution::UniformRandom);
    sorter::SimSorter<Record> sim(options(8, 16));
    const auto stats = sim.sort(data);
    EXPECT_EQ(stats.stages, model::mergeStages(20'000, 16, 16));
}

TEST(SimSorter, MemoryTrafficIsTwoPassesPerStage)
{
    const std::size_t n = 10'000;
    auto data = makeRecords(n, Distribution::UniformRandom);
    sorter::SimSorter<Record> sim(options(8, 16));
    const auto stats = sim.sort(data);
    const std::uint64_t per_stage = n * 4;
    EXPECT_EQ(stats.bytesWritten, per_stage * stats.stages);
    EXPECT_GE(stats.bytesRead, per_stage * stats.stages);
    // Reads may exceed by at most the final partial batches.
    EXPECT_LE(stats.bytesRead,
              per_stage * stats.stages + stats.stages * 1024 * 16);
}

} // namespace
} // namespace bonsai
