/**
 * @file
 * Cross-validation: the paper's Section VI-B exercise, reproduced
 * between our three fidelity levels.  The cycle-accurate simulator
 * plays the role of the FPGA measurement; the closed-form model
 * (Equation 1) and the stage-level simulator must track it closely
 * (the paper reports all measurements within 10% of the model).
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "model/perf_model.hpp"
#include "sorter/sim_sorter.hpp"
#include "sorter/stage_sim.hpp"

namespace bonsai
{
namespace
{

constexpr double kFrequency = 250e6;

struct Config
{
    unsigned p;
    unsigned ell;
    double bankBytesPerCycle; // per bank, 4 banks
};

class CrossValidation : public ::testing::TestWithParam<Config>
{
};

/** Cycle-sim seconds for n records under the given config. */
double
cycleSimSeconds(const Config &cfg, std::size_t n, unsigned &stages)
{
    sorter::SimSorter<Record>::Options o;
    o.config = amt::AmtConfig{cfg.p, cfg.ell, 1, 1};
    o.mem.numBanks = 4;
    o.mem.bankBytesPerCycle = cfg.bankBytesPerCycle;
    o.mem.interleaveBytes = 1024;
    o.mem.requestLatency = 8;
    o.batchBytes = 1024;
    o.recordBytes = 4;
    o.presortRun = 16;
    auto data = makeRecords(n, Distribution::UniformRandom);
    sorter::SimSorter<Record> sim(o);
    const auto stats = sim.sort(data);
    EXPECT_TRUE(stats.completed);
    stages = stats.stages;
    return stats.seconds(kFrequency);
}

TEST_P(CrossValidation, CycleSimWithinModelBound)
{
    const Config cfg = GetParam();
    const std::size_t n = 1 << 20; // 4 MB of 32-bit records
    unsigned stages = 0;
    const double measured = cycleSimSeconds(cfg, n, stages);

    model::BonsaiInputs in;
    in.array = {n, 4};
    in.hw.betaDram = 4 * cfg.bankBytesPerCycle * kFrequency;
    const auto predicted = model::latencyEstimate(
        in, amt::AmtConfig{cfg.p, cfg.ell, 1, 1});

    EXPECT_EQ(stages, predicted.stages);
    // The paper's bound: measurements within 10% of the model; we
    // allow 18% at this small scale where per-group flush overhead is
    // proportionally largest and address-interleaved banking exposes
    // transient bank conflicts the model's ideal-bandwidth term
    // (Equation 1) does not account for.
    EXPECT_NEAR(measured, predicted.latencySeconds,
                0.18 * predicted.latencySeconds)
        << "p=" << cfg.p << " ell=" << cfg.ell;
}

TEST_P(CrossValidation, StageSimTracksCycleSim)
{
    const Config cfg = GetParam();
    const std::size_t n = 1 << 20;
    unsigned stages = 0;
    const double measured = cycleSimSeconds(cfg, n, stages);

    sorter::StageSimulator::Options o;
    o.config = amt::AmtConfig{cfg.p, cfg.ell, 1, 1};
    o.array = {n, 4};
    o.frequencyHz = kFrequency;
    o.betaDram = 4 * cfg.bankBytesPerCycle * kFrequency;
    o.presortRun = 16;
    const auto staged = sorter::StageSimulator(o).run();

    EXPECT_EQ(staged.stages, stages);
    EXPECT_NEAR(staged.totalSeconds, measured, 0.15 * measured)
        << "p=" << cfg.p << " ell=" << cfg.ell;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CrossValidation,
    ::testing::Values(Config{8, 16, 32.0},   // compute-bound
                      Config{8, 64, 32.0},   // compute-bound, wide
                      Config{16, 16, 32.0},  // balanced
                      Config{32, 16, 16.0},  // bandwidth-bound
                      Config{4, 16, 32.0}),  // deeply compute-bound
    [](const ::testing::TestParamInfo<Config> &param_info) {
        // Appended piecewise: GCC 12 flags chained operator+ on
        // std::string with a -Wrestrict false positive.
        std::string name = "p";
        name += std::to_string(param_info.param.p);
        name += "_ell";
        name += std::to_string(param_info.param.ell);
        name += "_bw";
        name += std::to_string(
            static_cast<int>(param_info.param.bankBytesPerCycle));
        return name;
    });

} // namespace
} // namespace bonsai
