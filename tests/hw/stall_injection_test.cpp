/**
 * @file
 * Failure/stall injection tests (paper Section V-A: "In case one
 * input buffer becomes empty, the AMT will automatically stall until
 * the data loader feeds the buffer with more data.  ... we were
 * pausing the data loader in order to ensure the AMT behaves
 * correctly with empty input buffers").
 *
 * A jittery feeder starves random leaf buffers for random intervals
 * and delivers data in random bursts; a lazy drain randomly refuses to
 * pop the root FIFO.  The tree must stall and resume without ever
 * corrupting or reordering output.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "amt/instance.hpp"
#include "common/random.hpp"
#include "sim/engine.hpp"

namespace bonsai
{
namespace
{

/** Pushes a run + terminal into one leaf with random pauses. */
class JitteryFeeder : public sim::Component
{
  public:
    JitteryFeeder(sim::Fifo<Record> &leaf, std::vector<Record> run,
                  std::uint64_t seed)
        : Component("feeder"), leaf_(leaf), run_(std::move(run)),
          rng_(seed)
    {
    }

    void
    tick(sim::Cycle) override
    {
        if (pause_ > 0) {
            --pause_;
            return;
        }
        // Random burst of 0-4 records per cycle.
        const std::uint64_t burst = rng_.nextBounded(5);
        for (std::uint64_t i = 0; i < burst; ++i) {
            if (leaf_.full())
                return;
            if (pos_ < run_.size()) {
                leaf_.push(run_[pos_++]);
            } else if (!terminalSent_) {
                leaf_.push(Record::terminal());
                terminalSent_ = true;
            }
        }
        if (rng_.nextBounded(10) == 0)
            pause_ = rng_.nextBounded(30); // starve for a while
    }

    bool done() const { return terminalSent_; }

  private:
    sim::Fifo<Record> &leaf_;
    std::vector<Record> run_;
    std::size_t pos_ = 0;
    bool terminalSent_ = false;
    std::uint64_t pause_ = 0;
    SplitMix64 rng_;
};

struct Shape
{
    unsigned p;
    unsigned ell;
};

class StallInjection : public ::testing::TestWithParam<Shape>
{
};

TEST_P(StallInjection, JitteryFeedsAndLazyDrainStayCorrect)
{
    const auto [p, ell] = GetParam();
    const amt::TreeShape shape = amt::makeTreeShape(p, ell);
    amt::AmtInstance<Record> tree("amt", shape, 64);

    sim::SimEngine engine;
    std::vector<std::unique_ptr<JitteryFeeder>> feeders;
    std::vector<Record> all;
    for (unsigned j = 0; j < ell; ++j) {
        auto run = makeRecords(37 + 11 * j, Distribution::UniformRandom,
                               500 + j);
        std::sort(run.begin(), run.end());
        all.insert(all.end(), run.begin(), run.end());
        feeders.push_back(std::make_unique<JitteryFeeder>(
            *tree.leafBuffers()[j], std::move(run), 900 + j));
    }
    std::sort(all.begin(), all.end());
    for (auto &f : feeders)
        engine.add(f.get());
    tree.registerWith(engine);

    SplitMix64 drain_rng(31337);
    std::vector<Record> got;
    bool terminal_seen = false;
    const auto result = engine.run(
        [&] {
            // Lazy drain: sometimes refuse to pop at all.
            if (drain_rng.nextBounded(4) == 0)
                return terminal_seen;
            while (!tree.rootOutput().empty()) {
                const Record r = tree.rootOutput().pop();
                if (r.isTerminal())
                    terminal_seen = true;
                else
                    got.push_back(r);
            }
            return terminal_seen;
        },
        2'000'000);
    ASSERT_TRUE(result.finished) << "tree deadlocked under jitter";
    ASSERT_EQ(got.size(), all.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].key, all[i].key) << i;
    EXPECT_TRUE(tree.quiescent());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StallInjection,
    ::testing::Values(Shape{1, 2}, Shape{2, 4}, Shape{4, 8},
                      Shape{8, 16}, Shape{16, 4}, Shape{32, 8}),
    [](const ::testing::TestParamInfo<Shape> &param_info) {
        // Appended piecewise: GCC 12 flags chained operator+ on
        // std::string with a -Wrestrict false positive.
        std::string name = "p";
        name += std::to_string(param_info.param.p);
        name += "_ell";
        name += std::to_string(param_info.param.ell);
        return name;
    });

TEST(StallInjection, MergerResumesAfterLongStarvation)
{
    // One input stops mid-run for a long time; the merger must stall
    // (not emit) and resume exactly where it left off.
    sim::Fifo<Record> in_a(128), in_b(128), out(64);
    hw::Merger<Record> merger("m", 4, in_a, in_b, out);
    // Feed half of A now, all of B now.
    std::vector<Record> run_a, run_b;
    for (std::uint64_t i = 0; i < 40; ++i)
        run_a.push_back(Record{2 * i + 1, 0});
    for (std::uint64_t i = 0; i < 40; ++i)
        run_b.push_back(Record{2 * i + 2, 0});
    for (std::size_t i = 0; i < 20; ++i)
        in_a.push(run_a[i]);
    for (const Record &r : run_b)
        in_b.push(r);
    in_b.push(Record::terminal());

    sim::SimEngine engine;
    engine.add(&merger);
    std::vector<Record> got;
    // Phase 1: run 500 cycles with A starved after 20 records.
    engine.run(
        [&] {
            while (!out.empty()) {
                const Record r = out.pop();
                if (!r.isTerminal())
                    got.push_back(r);
            }
            return false;
        },
        500);
    const std::size_t drained_during_starvation = got.size();
    // The merger cannot overtake A's missing data.
    EXPECT_LT(drained_during_starvation, 45u);
    // Phase 2: deliver the rest of A.
    for (std::size_t i = 20; i < run_a.size(); ++i)
        in_a.push(run_a[i]);
    in_a.push(Record::terminal());
    const auto result = engine.run(
        [&] {
            while (!out.empty()) {
                const Record r = out.pop();
                if (!r.isTerminal())
                    got.push_back(r);
            }
            return got.size() >= 80;
        },
        5000);
    ASSERT_TRUE(result.finished);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].key, i + 1);
}

} // namespace
} // namespace bonsai
