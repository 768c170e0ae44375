/** @file Integration tests: a full AMT instance merges ell streams. */

#include <gtest/gtest.h>

#include <algorithm>

#include "amt/instance.hpp"
#include "common/random.hpp"
#include "sim/engine.hpp"

namespace bonsai
{
namespace
{

/**
 * Feed one sorted run per leaf (plus terminal) and expect the root to
 * emit the full merge followed by one terminal.
 */
void
mergeOnce(unsigned p, unsigned ell, std::size_t run_len)
{
    const amt::TreeShape shape = amt::makeTreeShape(p, ell);
    amt::AmtInstance<Record> tree("amt", shape, 4096);

    std::vector<Record> all;
    for (unsigned j = 0; j < ell; ++j) {
        auto run = makeRecords(run_len, Distribution::UniformRandom,
                               100 + j);
        std::sort(run.begin(), run.end());
        for (const Record &r : run) {
            tree.leafBuffers()[j]->push(r);
            all.push_back(r);
        }
        tree.leafBuffers()[j]->push(Record::terminal());
    }
    std::sort(all.begin(), all.end());

    sim::SimEngine engine;
    tree.registerWith(engine);
    std::vector<Record> got;
    bool terminal_seen = false;
    const auto result = engine.run(
        [&] {
            while (!tree.rootOutput().empty()) {
                const Record r = tree.rootOutput().pop();
                if (r.isTerminal())
                    terminal_seen = true;
                else
                    got.push_back(r);
            }
            return terminal_seen;
        },
        1000000);
    ASSERT_TRUE(result.finished)
        << "AMT(" << p << "," << ell << ") deadlocked";
    ASSERT_EQ(got.size(), all.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].key, all[i].key);
    EXPECT_TRUE(tree.quiescent());
}

struct Shape
{
    unsigned p;
    unsigned ell;
};

class AmtShapes : public ::testing::TestWithParam<Shape>
{
};

TEST_P(AmtShapes, MergesEllSortedRuns)
{
    mergeOnce(GetParam().p, GetParam().ell, 33);
}

TEST_P(AmtShapes, MergesTupleAlignedRuns)
{
    mergeOnce(GetParam().p, GetParam().ell, 64);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AmtShapes,
    ::testing::Values(Shape{1, 2}, Shape{1, 4}, Shape{2, 2},
                      Shape{2, 8}, Shape{4, 4}, Shape{4, 16},
                      Shape{8, 2}, Shape{8, 8}, Shape{16, 4},
                      Shape{32, 2}, Shape{32, 8}, Shape{2, 32}),
    [](const ::testing::TestParamInfo<Shape> &param_info) {
        // Appended piecewise: GCC 12 flags chained operator+ on
        // std::string with a -Wrestrict false positive.
        std::string name = "p";
        name += std::to_string(param_info.param.p);
        name += "_ell";
        name += std::to_string(param_info.param.ell);
        return name;
    });

TEST(AmtInstance, TwoGroupsSequentially)
{
    const unsigned p = 4, ell = 4;
    const amt::TreeShape shape = amt::makeTreeShape(p, ell);
    amt::AmtInstance<Record> tree("amt", shape, 4096);

    std::vector<std::vector<Record>> expected(2);
    for (unsigned j = 0; j < ell; ++j) {
        for (int g = 0; g < 2; ++g) {
            auto run = makeRecords(19 + 3 * g,
                                   Distribution::UniformRandom,
                                   31 * g + j);
            std::sort(run.begin(), run.end());
            for (const Record &r : run) {
                tree.leafBuffers()[j]->push(r);
                expected[g].push_back(r);
            }
            tree.leafBuffers()[j]->push(Record::terminal());
        }
    }
    for (auto &group : expected)
        std::sort(group.begin(), group.end());

    sim::SimEngine engine;
    tree.registerWith(engine);
    std::vector<std::vector<Record>> got(1);
    const auto result = engine.run(
        [&] {
            while (!tree.rootOutput().empty()) {
                const Record r = tree.rootOutput().pop();
                if (r.isTerminal())
                    got.emplace_back();
                else
                    got.back().push_back(r);
            }
            return got.size() >= 3;
        },
        1000000);
    ASSERT_TRUE(result.finished);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_TRUE(got[2].empty());
    for (int g = 0; g < 2; ++g) {
        ASSERT_EQ(got[g].size(), expected[g].size());
        for (std::size_t i = 0; i < got[g].size(); ++i)
            EXPECT_EQ(got[g][i].key, expected[g][i].key);
    }
}

} // namespace
} // namespace bonsai
