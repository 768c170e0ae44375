/**
 * @file
 * Unit tests for the ell-way in-memory merge (MergeTree).  The suite
 * names (LoserTree, LoserTreeWays) name the merge contract these cases
 * pin: every fan-in, empty members, duplicate keys and skewed lengths.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"
#include "sorter/merge_tree.hpp"

namespace bonsai
{
namespace
{

std::vector<Record>
drain(sorter::MergeTree<Record> &tree)
{
    std::vector<Record> out(tree.size());
    tree.merge(out.data());
    return out;
}

void
checkMerge(const std::vector<std::vector<Record>> &runs)
{
    std::vector<std::span<const Record>> spans;
    std::vector<Record> expect;
    for (const auto &run : runs) {
        spans.emplace_back(run);
        expect.insert(expect.end(), run.begin(), run.end());
    }
    std::sort(expect.begin(), expect.end());
    sorter::MergeTree<Record> tree(spans);
    const auto got = drain(tree);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].key, expect[i].key);
}

std::vector<Record>
sortedRun(std::size_t n, std::uint64_t seed)
{
    auto run = makeRecords(n, Distribution::UniformRandom, seed);
    std::sort(run.begin(), run.end());
    return run;
}

TEST(LoserTree, TwoWays)
{
    checkMerge({sortedRun(10, 1), sortedRun(13, 2)});
}

TEST(LoserTree, NonPowerOfTwoWays)
{
    checkMerge({sortedRun(5, 1), sortedRun(9, 2), sortedRun(2, 3)});
}

TEST(LoserTree, ManyWays)
{
    std::vector<std::vector<Record>> runs;
    for (int i = 0; i < 64; ++i)
        runs.push_back(sortedRun(29 + (i % 7), 100 + i));
    checkMerge(runs);
}

TEST(LoserTree, EmptyRunsAmongInputs)
{
    checkMerge({{}, sortedRun(7, 1), {}, sortedRun(3, 2), {}});
}

TEST(LoserTree, SingleInput)
{
    checkMerge({sortedRun(20, 5)});
}

TEST(LoserTree, AllEmpty)
{
    std::vector<std::span<const Record>> spans(3);
    sorter::MergeTree<Record> tree(spans);
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_TRUE(drain(tree).empty());
}

TEST(LoserTree, DuplicateKeysAcrossRuns)
{
    std::vector<Record> a(15, Record{7, 1});
    std::vector<Record> b(9, Record{7, 2});
    std::vector<Record> c = {{5, 0}, {7, 3}, {9, 0}};
    checkMerge({a, b, c});
}

TEST(LoserTree, SkewedRunLengths)
{
    checkMerge({sortedRun(1000, 1), sortedRun(1, 2), sortedRun(1, 3),
                sortedRun(500, 4)});
}

class LoserTreeWays : public ::testing::TestWithParam<int>
{
};

TEST_P(LoserTreeWays, RandomRuns)
{
    std::vector<std::vector<Record>> runs;
    for (int i = 0; i < GetParam(); ++i)
        runs.push_back(sortedRun(50, 200 + i));
    checkMerge(runs);
}

INSTANTIATE_TEST_SUITE_P(Fanins, LoserTreeWays,
                         ::testing::Values(2, 3, 4, 7, 8, 15, 16, 31,
                                           33, 256));

} // namespace
} // namespace bonsai
