/**
 * @file
 * SimSorter: end-to-end sorting on the cycle-level simulator.
 *
 * Orchestrates the recursive merge procedure of Figure 2: per stage it
 * instantiates the AMT(s), a DataLoader and DataWriter per tree, and a
 * shared MemoryTiming model, then runs the engine until the stage's
 * output is fully written, ping-ponging between two DRAM buffers.
 *
 * Unrolled configurations (lambda_unrl > 1) follow the address-range
 * scheme of Section IV-B: each tree independently sorts a contiguous
 * region (phase A), then combining stages merge the sorted regions
 * with progressively fewer active trees — the HBM halving schedule
 * ("half of the AMTs are idled, and the remaining AMTs do one more
 * merge stage").
 */

#ifndef BONSAI_SORTER_SIM_SORTER_HPP
#define BONSAI_SORTER_SIM_SORTER_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "amt/config.hpp"
#include "common/contract.hpp"
#include "amt/instance.hpp"
#include "hw/data_loader.hpp"
#include "hw/data_writer.hpp"
#include "mem/timing.hpp"
#include "sim/engine.hpp"
#include "sorter/range_partitioner.hpp"
#include "sorter/stage_plan.hpp"

namespace bonsai::sorter
{

/** How unrolled trees split the input (Section III-A2). */
enum class UnrollMode
{
    /** Each tree sorts a contiguous address range; combining stages
     *  with halving tree counts merge the results (Section IV-B). */
    AddressRange,
    /** The input is first split into non-overlapping key ranges (the
     *  partition pass is pipelined with stage one); the concatenated
     *  per-tree outputs are already sorted — no combine stages. */
    RangePartitioned,
};

/** Per-stage detail of a simulated sort. */
struct StageReport
{
    std::uint64_t cycles = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t mergerStallCycles = 0; ///< summed over all mergers
    std::uint64_t groups = 0;            ///< merge groups executed
    /** Fraction of the memory read channel's peak the stage drew. */
    double readUtilization = 0.0;
};

/** Result of a simulated sort. */
struct SimSortStats
{
    std::uint64_t totalCycles = 0;
    std::vector<std::uint64_t> stageCycles;
    std::vector<StageReport> stageReports;
    std::uint64_t mergerStallCycles = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    unsigned stages = 0;
    bool completed = false; ///< false = cycle budget exceeded

    /** Wall-clock seconds at clock frequency @p f. */
    double
    seconds(double frequency_hz) const
    {
        return static_cast<double>(totalCycles) / frequency_hz;
    }
};

template <typename RecordT>
class SimSorter
{
  public:
    struct Options
    {
        amt::AmtConfig config;             ///< p, ell, lambda_unrl
        mem::MemTimingConfig mem;          ///< off-chip memory timing
        std::uint64_t batchBytes = 1024;   ///< read/write batch b
        std::uint64_t recordBytes = 4;     ///< modeled record width r
        std::uint64_t presortRun = 16;     ///< presorter chunk (1 = off)
        /** Input already consists of sorted runs of presortRun
         *  records (e.g. phase 2 of the SSD sorter, whose runs come
         *  from phase 1): skip the presort pass but keep the run
         *  structure.  presortRun may then exceed the batch size. */
        bool inputPresorted = false;
        /** Unrolled-tree data split (ignored at lambda_unrl = 1). */
        UnrollMode unrollMode = UnrollMode::AddressRange;
        /** Run every stage under a wired ProtocolChecker: per-channel
         *  stream contracts are verified every cycle and a finalize
         *  pass checks terminal counts and quiescence per stage. */
        bool checked = false;
        /** Engine strategy.  FastForward skips provably idle cycles;
         *  Reference is the naive every-component-every-cycle loop.
         *  Both produce identical cycle counts, stall statistics and
         *  output bytes (pinned by the equivalence harness). */
        sim::EngineMode engine = sim::EngineMode::FastForward;
    };

    explicit SimSorter(const Options &opts) : opts_(opts)
    {
        BONSAI_REQUIRE(opts.config.lambdaPipe == 1,
                       "pipelined configs are modeled by the "
                       "StageSimulator");
        BONSAI_REQUIRE(opts.batchBytes >= opts.recordBytes,
                       "a batch must hold at least one record");
    }

    /** Sort @p data in place, accumulating cycle statistics. */
    SimSortStats
    sort(std::vector<RecordT> &data) const
    {
        SimSortStats stats;
        stats.completed = true;
        if (data.size() <= 1)
            return stats;

        const bool range_mode =
            opts_.config.lambdaUnrl > 1 &&
            opts_.unrollMode == UnrollMode::RangePartitioned;
        std::vector<Region> regions;
        if (range_mode) {
            // Non-overlapping key ranges: the scatter pass is fused
            // with stage one in hardware, so it adds no cycles here.
            RangePartitioner<RecordT> partitioner(
                opts_.config.lambdaUnrl);
            RangePartition<RecordT> part = partitioner.partition(data);
            data = std::move(part.data);
            for (unsigned t = 0; t < opts_.config.lambdaUnrl; ++t) {
                const std::uint64_t lo =
                    t < part.offsets.size() - 1 ? part.offsets[t]
                                                : data.size();
                const std::uint64_t hi =
                    t + 1 < part.offsets.size() ? part.offsets[t + 1]
                                                : data.size();
                regions.push_back(makeRegion(lo, hi));
            }
        } else {
            regions = partition(data.size());
        }

        std::vector<RecordT> scratch(data.size());
        std::vector<RecordT> *src = &data;
        std::vector<RecordT> *dst = &scratch;
        bool presort_pending =
            opts_.presortRun > 1 && !opts_.inputPresorted;

        // Phase A: every tree sorts its own region; all active trees
        // share one engine (and thus memory bandwidth) per stage.
        while (presort_pending || anyUnsorted(regions)) {
            std::vector<TreeJob> jobs;
            for (Region &region : regions) {
                if (presort_pending || region.runs.size() > 1) {
                    jobs.push_back(TreeJob{
                        StagePlan(region.runs, opts_.config.ell,
                                  region.base),
                        &region});
                }
            }
            if (jobs.empty())
                break;
            if (!runStage(jobs, *src, *dst, presort_pending, stats))
                return stats;
            for (TreeJob &job : jobs)
                job.region->runs = job.plan.outputRuns();
            for (const Region &region : regions) {
                if (!inJobs(jobs, region))
                    copyRegion(region, *src, *dst);
            }
            presort_pending = false;
            std::swap(src, dst);
        }

        // Phase B: combine the sorted regions; each merge group runs
        // on its own tree, so the active tree count halves (for
        // ell = 2) until a single run remains.  Range-partitioned
        // regions concatenate sorted — no combining needed.
        if (range_mode) {
            if (src != &data)
                data = std::move(*src);
            return stats;
        }
        std::vector<RunSpan> runs;
        for (const Region &region : regions) {
            for (const RunSpan &run : region.runs) {
                if (run.length > 0)
                    runs.push_back(run);
            }
        }
        while (runs.size() > 1) {
            StagePlan plan(runs, opts_.config.ell, 0);
            const std::vector<RunSpan> out = plan.outputRuns();
            std::vector<TreeJob> jobs;
            for (std::uint64_t g = 0; g < plan.groups(); ++g) {
                jobs.push_back(TreeJob{
                    StagePlan(plan.groupRuns(g), opts_.config.ell,
                              out[g].offset),
                    nullptr});
            }
            if (!runStage(jobs, *src, *dst, false, stats))
                return stats;
            runs = out;
            std::swap(src, dst);
        }

        if (src != &data)
            data = std::move(*src);
        return stats;
    }

  private:
    struct Region
    {
        std::uint64_t base = 0;
        std::vector<RunSpan> runs;
    };

    struct TreeJob
    {
        StagePlan plan;
        Region *region = nullptr;
    };

    /** Region covering records [lo, hi), chunked into initial runs. */
    Region
    makeRegion(std::uint64_t lo, std::uint64_t hi) const
    {
        Region region;
        region.base = lo;
        if (hi > lo) {
            for (RunSpan run : chunkRuns(hi - lo, opts_.presortRun)) {
                run.offset += lo;
                region.runs.push_back(run);
            }
        } else {
            region.runs.push_back(RunSpan{lo, 0});
        }
        return region;
    }

    std::vector<Region>
    partition(std::uint64_t n) const
    {
        const unsigned trees = opts_.config.lambdaUnrl;
        const std::uint64_t per_tree = (n + trees - 1) / trees;
        std::vector<Region> regions;
        for (unsigned t = 0; t < trees; ++t) {
            const std::uint64_t lo =
                std::min<std::uint64_t>(t * per_tree, n);
            const std::uint64_t hi =
                std::min<std::uint64_t>(lo + per_tree, n);
            regions.push_back(makeRegion(lo, hi));
        }
        return regions;
    }

    static bool
    anyUnsorted(const std::vector<Region> &regions)
    {
        for (const Region &region : regions) {
            if (region.runs.size() > 1)
                return true;
        }
        return false;
    }

    static bool
    inJobs(const std::vector<TreeJob> &jobs, const Region &region)
    {
        for (const TreeJob &job : jobs) {
            if (job.region == &region)
                return true;
        }
        return false;
    }

    static void
    copyRegion(const Region &region, const std::vector<RecordT> &src,
               std::vector<RecordT> &dst)
    {
        for (const RunSpan &run : region.runs) {
            std::copy(src.begin() + run.offset,
                      src.begin() + run.offset + run.length,
                      dst.begin() + run.offset);
        }
    }

    /**
     * Execute one merge stage: build engine + memory + one AMT per
     * job, run to completion.  Returns false on cycle-budget overrun.
     */
    bool
    runStage(std::vector<TreeJob> &jobs, const std::vector<RecordT> &src,
             std::vector<RecordT> &dst, bool presort_pass,
             SimSortStats &stats) const
    {
        sim::SimEngine engine;
        mem::MemoryTiming memory("dram", opts_.mem);
        const std::uint64_t batch_records = std::max<std::uint64_t>(
            opts_.batchBytes / opts_.recordBytes, 1);
        const std::uint64_t dst_base =
            src.size() * opts_.recordBytes; // disjoint address range

        std::vector<std::unique_ptr<amt::AmtInstance<RecordT>>> amts;
        std::vector<std::unique_ptr<hw::DataLoader<RecordT>>> loaders;
        std::vector<std::unique_ptr<hw::DataWriter<RecordT>>> writers;
        std::uint64_t stage_records = 0;

        for (TreeJob &job : jobs) {
            const StagePlan &plan = job.plan;
            stage_records += plan.totalRecords();
            const amt::TreeShape shape =
                amt::makeTreeShape(opts_.config.p, opts_.config.ell);
            auto tree = std::make_unique<amt::AmtInstance<RecordT>>(
                "amt", shape, 2 * (2 * batch_records + 2) + 2,
                opts_.checked);
            tree->expectRunsPerChannel(plan.groups());

            std::vector<typename hw::DataLoader<RecordT>::LeafFeed>
                feeds;
            for (unsigned j = 0; j < opts_.config.ell; ++j) {
                typename hw::DataLoader<RecordT>::LeafFeed feed;
                feed.buffer = tree->leafBuffers()[j];
                feed.runs = plan.leafRuns(j);
                feeds.push_back(std::move(feed));
            }
            auto loader = std::make_unique<hw::DataLoader<RecordT>>(
                "loader", std::span<const RecordT>(src),
                std::move(feeds), memory, batch_records,
                presort_pass ? opts_.presortRun : 0,
                /*base_addr=*/0, opts_.recordBytes);

            const std::vector<RunSpan> out = plan.outputRuns();
            const std::uint64_t out_lo = out.front().offset;
            auto writer = std::make_unique<hw::DataWriter<RecordT>>(
                "writer", tree->rootOutput(),
                std::span<RecordT>(dst.data() + out_lo,
                                   dst.size() - out_lo),
                memory, opts_.config.p, plan.totalRecords(),
                plan.groups(), batch_records,
                dst_base + out_lo * opts_.recordBytes,
                opts_.recordBytes);

            amts.push_back(std::move(tree));
            loaders.push_back(std::move(loader));
            writers.push_back(std::move(writer));
        }

        engine.add(&memory);
        for (auto &writer : writers) {
            engine.add(writer.get());
            // The stage is done exactly when every writer finished:
            // declaring the writers as completion sources lets the
            // fast-forward engine gate the predicate and jump over
            // all-dormant stalls.
            engine.addCompletionSource(writer.get());
        }
        for (auto &tree : amts)
            tree->registerWith(engine);
        for (auto &loader : loaders)
            engine.add(loader.get());

        const auto done = [&]() {
            for (auto &writer : writers) {
                if (!writer->finished())
                    return false;
            }
            return true;
        };
        // A generous per-stage cycle bound: a stage still running
        // past it has deadlocked.
        const std::uint64_t budget = 100'000 + stage_records * 64;
        const sim::SimEngine::RunResult result =
            engine.run(done, budget, opts_.engine);
        stats.totalCycles += result.cycles;
        stats.stageCycles.push_back(result.cycles);
        ++stats.stages;

        StageReport report;
        report.cycles = result.cycles;
        report.bytesRead = memory.bytesRead();
        report.bytesWritten = memory.bytesWritten();
        for (const TreeJob &job : jobs)
            report.groups += job.plan.groups();
        for (auto &tree : amts) {
            report.mergerStallCycles += tree->totalStallCycles();
            stats.mergerStallCycles += tree->totalStallCycles();
        }
        const double peak = opts_.mem.numBanks *
            opts_.mem.bankBytesPerCycle *
            static_cast<double>(result.cycles);
        report.readUtilization = peak > 0.0
            ? static_cast<double>(report.bytesRead) / peak
            : 0.0;
        stats.stageReports.push_back(report);

        stats.bytesRead += memory.bytesRead();
        stats.bytesWritten += memory.bytesWritten();
        if (!result.finished) {
            stats.completed = false;
            return false;
        }
        // All writers drained: the tree must be back to its idle
        // state with every expectation met (throws on violation).
        for (auto &tree : amts)
            tree->finalizeChecks();
        return true;
    }

    Options opts_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_SIM_SORTER_HPP
