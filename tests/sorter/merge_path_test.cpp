/** @file Unit tests for the Merge Path ell-way merge partitioner. */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"
#include "sorter/merge_path.hpp"
#include "sorter/merge_tree.hpp"

namespace bonsai
{
namespace
{

using Runs = std::vector<std::vector<Record>>;

std::vector<std::span<const Record>>
spansOf(const Runs &runs)
{
    std::vector<std::span<const Record>> spans;
    for (const auto &run : runs)
        spans.emplace_back(run);
    return spans;
}

std::vector<Record>
serialMerge(const Runs &runs)
{
    const auto spans = spansOf(runs);
    sorter::MergeTree<Record> tree(spans);
    std::vector<Record> out(tree.size());
    tree.merge(out.data());
    return out;
}

/** Merge each slice independently and concatenate. */
std::vector<Record>
slicedMerge(const Runs &runs, unsigned parts)
{
    const sorter::MergePath<Record> path(spansOf(runs));
    const auto bounds = path.partition(parts);
    std::vector<Record> out;
    const auto spans = spansOf(runs);
    for (unsigned t = 0; t < parts; ++t) {
        sorter::MergeTree<Record> tree(spans, bounds[t], bounds[t + 1]);
        const std::size_t at = out.size();
        out.resize(at + tree.size());
        tree.merge(out.data() + at);
    }
    return out;
}

void
expectIdentical(const std::vector<Record> &a,
                const std::vector<Record> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Full-record equality: key AND payload (byte-identical).
        ASSERT_EQ(a[i], b[i]) << "record " << i;
    }
}

std::vector<Record>
sortedRun(std::size_t n, std::uint64_t seed)
{
    auto run = makeRecords(n, Distribution::UniformRandom, seed);
    std::sort(run.begin(), run.end());
    return run;
}

TEST(MergePath, CutsSumToRank)
{
    Runs runs = {sortedRun(100, 1), sortedRun(37, 2),
                 sortedRun(211, 3)};
    const sorter::MergePath<Record> path(spansOf(runs));
    ASSERT_EQ(path.totalRecords(), 348u);
    for (std::uint64_t r : {0u, 1u, 5u, 173u, 347u, 348u}) {
        const auto cuts = path.cutsForRank(r);
        std::uint64_t sum = 0;
        for (std::uint64_t c : cuts)
            sum += c;
        EXPECT_EQ(sum, r);
    }
}

TEST(MergePath, BoundariesAreMonotone)
{
    Runs runs = {sortedRun(500, 7), sortedRun(3, 8), sortedRun(99, 9)};
    const sorter::MergePath<Record> path(spansOf(runs));
    const auto bounds = path.partition(8);
    ASSERT_EQ(bounds.size(), 9u);
    for (unsigned t = 0; t + 1 < bounds.size(); ++t) {
        for (std::size_t i = 0; i < runs.size(); ++i)
            EXPECT_LE(bounds[t][i], bounds[t + 1][i]);
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(bounds.front()[i], 0u);
        EXPECT_EQ(bounds.back()[i], runs[i].size());
    }
}

TEST(MergePath, CutRespectsMergeOrder)
{
    // Every record before a cut must precede (in the augmented order)
    // every record after it — the Merge Path staircase invariant.
    Runs runs = {sortedRun(64, 11), sortedRun(64, 12),
                 sortedRun(64, 13)};
    const sorter::MergePath<Record> path(spansOf(runs));
    const auto cuts = path.cutsForRank(96);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (cuts[i] == 0)
            continue;
        const Record &last = runs[i][cuts[i] - 1];
        for (std::size_t j = 0; j < runs.size(); ++j) {
            if (cuts[j] == runs[j].size())
                continue;
            const Record &first = runs[j][cuts[j]];
            // last (input i) precedes first (input j): smaller key,
            // or equal key and lower input index.
            EXPECT_TRUE(last < first || (!(first < last) && i <= j));
        }
    }
}

TEST(MergePath, SlicedMergeMatchesSerialByteForByte)
{
    Runs runs;
    for (int i = 0; i < 9; ++i)
        runs.push_back(sortedRun(200 + 37 * i, 40 + i));
    const auto serial = serialMerge(runs);
    for (unsigned parts : {1u, 2u, 3u, 7u, 16u})
        expectIdentical(slicedMerge(runs, parts), serial);
}

TEST(MergePath, AllEqualKeysStayByteIdentical)
{
    // Equal keys with distinct payloads: only the (key, input index,
    // position) augmented order keeps slices byte-identical.
    Runs runs;
    for (std::uint64_t i = 0; i < 5; ++i) {
        std::vector<Record> run;
        for (std::uint64_t p = 0; p < 123; ++p)
            run.push_back(Record{7, 1000 * i + p});
        runs.push_back(std::move(run));
    }
    const auto serial = serialMerge(runs);
    for (unsigned parts : {2u, 3u, 8u})
        expectIdentical(slicedMerge(runs, parts), serial);
}

TEST(MergePath, FewDistinctKeysAcrossManyInputs)
{
    Runs runs;
    SplitMix64 rng(99);
    for (int i = 0; i < 16; ++i) {
        std::vector<Record> run;
        for (int p = 0; p < 150; ++p)
            run.push_back(Record{1 + rng.nextBounded(4),
                                 rng.next()});
        std::sort(run.begin(), run.end());
        runs.push_back(std::move(run));
    }
    const auto serial = serialMerge(runs);
    for (unsigned parts : {2u, 5u, 8u})
        expectIdentical(slicedMerge(runs, parts), serial);
}

TEST(MergePath, SkewedAndEmptyInputs)
{
    Runs runs = {sortedRun(2000, 21), {}, sortedRun(1, 22),
                 {},        sortedRun(300, 23)};
    const auto serial = serialMerge(runs);
    for (unsigned parts : {2u, 4u, 8u})
        expectIdentical(slicedMerge(runs, parts), serial);
}

TEST(MergePath, MorePartsThanRecords)
{
    Runs runs = {sortedRun(2, 31), sortedRun(1, 32)};
    const auto serial = serialMerge(runs);
    expectIdentical(slicedMerge(runs, 8), serial);
}

TEST(MergePath, EmptyInputSet)
{
    const sorter::MergePath<Record> path({});
    EXPECT_EQ(path.totalRecords(), 0u);
    const auto bounds = path.partition(4);
    ASSERT_EQ(bounds.size(), 5u);
    for (const auto &b : bounds)
        EXPECT_TRUE(b.empty());
}

} // namespace
} // namespace bonsai
