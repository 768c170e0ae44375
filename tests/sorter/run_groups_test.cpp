/** @file Unit tests for the host's merge groups. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/run.hpp"
#include "sorter/run_groups.hpp"

namespace bonsai
{
namespace
{

TEST(RunGroups, GroupsAreContiguousBalancedRanges)
{
    // 10 runs at fan-in 4: ceil(10 / 4) = 3 groups of runs [0, 3),
    // [3, 6) and [6, 10).
    const std::vector<RunSpan> runs = chunkRuns(1000, 100);
    const sorter::RunGroups groups(runs, 4);
    ASSERT_EQ(groups.count(), 3u);
    EXPECT_EQ(groups.widest(), 4u);
    const std::uint64_t first[] = {0, 3, 6, 10};
    for (std::uint64_t g = 0; g < groups.count(); ++g) {
        const auto m = groups.members(g);
        ASSERT_EQ(m.size(), first[g + 1] - first[g]) << "group " << g;
        EXPECT_EQ(m.data(), runs.data() + first[g]) << "group " << g;
        EXPECT_EQ(groups.output(g),
                  (RunSpan{first[g] * 100, m.size() * 100}))
            << "group " << g;
    }
    EXPECT_EQ(groups.outputs(),
              (std::vector<RunSpan>{{0, 300}, {300, 300}, {600, 400}}));
    EXPECT_EQ(groups.totalRecords(), 1000u);
}

TEST(RunGroups, EveryRunCountSplitsIntoFloorOrCeilSizes)
{
    // Each group holds floor(R / G) or ceil(R / G) runs, the groups
    // tile the run list in order, and the outputs tile the records.
    for (const unsigned ell : {2u, 3u, 16u, 64u}) {
        for (std::uint64_t r = 1; r <= 200; ++r) {
            const std::vector<RunSpan> runs = chunkRuns(r * 7 - 3, 7);
            const sorter::RunGroups groups(runs, ell);
            const std::uint64_t g_count = (r + ell - 1) / ell;
            ASSERT_EQ(groups.count(), g_count);
            std::uint64_t next_run = 0;
            std::uint64_t next_record = 0;
            for (std::uint64_t g = 0; g < g_count; ++g) {
                const auto m = groups.members(g);
                EXPECT_GE(m.size(), r / g_count);
                EXPECT_LE(m.size(), groups.widest());
                EXPECT_EQ(m.data(), runs.data() + next_run);
                EXPECT_EQ(groups.output(g).offset, next_record);
                next_run += m.size();
                next_record += groups.output(g).length;
            }
            EXPECT_EQ(groups.widest(), (r + g_count - 1) / g_count);
            EXPECT_EQ(next_run, r) << "ell " << ell << " runs " << r;
            EXPECT_EQ(next_record, groups.totalRecords());
        }
    }
}

} // namespace
} // namespace bonsai
