/** @file Unit tests for the CPU baseline sorters. */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "baseline/cpu_sorters.hpp"
#include "common/checks.hpp"
#include "common/random.hpp"

namespace bonsai
{
namespace
{


void
lsd(std::vector<Record> &data)
{
    baseline::lsdRadixSort(data);
}

void
paradis(std::vector<Record> &data)
{
    baseline::parallelMsdRadixSort(data, 4);
}

void
sample(std::vector<Record> &data)
{
    baseline::sampleSortCpu(data, 32, 4);
}

/** A sorter under test.  gtest prints the parameter by its name, so the
 *  test names it lists do not carry a function's load address, which
 *  changes from one run to the next. */
struct NamedSorter
{
    const char *name;
    void (*sort)(std::vector<Record> &);
};

void
PrintTo(const NamedSorter &sorter, std::ostream *os)
{
    *os << sorter.name;
}

class CpuSorters : public ::testing::TestWithParam<NamedSorter>
{
};

TEST_P(CpuSorters, SortsAllDistributions)
{
    for (Distribution dist :
         {Distribution::UniformRandom, Distribution::Sorted,
          Distribution::Reverse, Distribution::AllEqual,
          Distribution::FewDistinct, Distribution::NearlySorted}) {
        auto data = makeRecords(20'000, dist);
        const Fingerprint before =
            fingerprint(std::span<const Record>(data));
        GetParam().sort(data);
        EXPECT_TRUE(isSorted(std::span<const Record>(data)));
        EXPECT_EQ(before, fingerprint(std::span<const Record>(data)));
    }
}

TEST_P(CpuSorters, SortsEdgeSizes)
{
    for (std::size_t n : {0u, 1u, 2u, 3u, 63u, 64u, 65u, 1000u}) {
        auto data = makeRecords(n, Distribution::UniformRandom);
        GetParam().sort(data);
        EXPECT_TRUE(isSorted(std::span<const Record>(data))) << n;
        EXPECT_EQ(data.size(), n);
    }
}

TEST_P(CpuSorters, MatchesStdSortKeys)
{
    auto data = makeRecords(50'000, Distribution::UniformRandom, 77);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    GetParam().sort(data);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(data[i].key, expect[i].key);
}

INSTANTIATE_TEST_SUITE_P(
    All, CpuSorters,
    ::testing::Values(NamedSorter{"stdSort", &baseline::stdSort},
                      NamedSorter{"lsdRadix", &lsd},
                      NamedSorter{"parallelMsdRadix", &paradis},
                      NamedSorter{"sampleSort", &sample}),
    [](const auto &param_info) -> std::string {
        return param_info.param.name;
    });

TEST(LsdRadix, KeysWithHighBytesSet)
{
    std::vector<Record> data;
    SplitMix64 rng(1);
    for (int i = 0; i < 5000; ++i)
        data.push_back(Record{rng.next() | (1ULL << 63), 0});
    baseline::lsdRadixSort(data);
    EXPECT_TRUE(isSorted(std::span<const Record>(data)));
}

TEST(ParallelMsdRadix, SingleThreadFallback)
{
    auto data = makeRecords(10'000, Distribution::UniformRandom);
    baseline::parallelMsdRadixSort(data, 1);
    EXPECT_TRUE(isSorted(std::span<const Record>(data)));
}

TEST(SampleSort, ManyBucketsFewRecords)
{
    auto data = makeRecords(100, Distribution::UniformRandom);
    baseline::sampleSortCpu(data, 64, 2);
    EXPECT_TRUE(isSorted(std::span<const Record>(data)));
}

} // namespace
} // namespace bonsai
