/**
 * @file
 * Cycle-level simulation of a pipelined AMT configuration (paper
 * Figure 4 / Section III-A3): lambda_pipe AMTs chained so each merge
 * stage of the sorting procedure runs on a different tree, with
 * arrays streaming in from the I/O bus, intermediate runs bouncing
 * through DRAM banks, and sorted arrays streaming back out — the I/O
 * bus never idles.
 *
 * Execution is slotted: in pipeline slot t, AMT i works on chunk
 * t - i (stage i of that chunk).  All active trees share one engine:
 * stage-0 reads and last-stage writes are timed by the I/O bus model,
 * interior stages by the DRAM model — exactly the contention structure
 * behind Equation 3's min(p f r, beta_dram / lambda_pipe, beta_io).
 */

#ifndef BONSAI_SORTER_PIPELINE_SIM_HPP
#define BONSAI_SORTER_PIPELINE_SIM_HPP

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
#include "sorter/stage_plan.hpp"

namespace bonsai::sorter
{

/** Result of a pipelined batch sort. */
struct PipelineSimStats
{
    std::uint64_t totalCycles = 0;
    unsigned slots = 0;        ///< pipeline slots executed
    std::uint64_t bytesIn = 0; ///< chunk bytes entering over I/O
    bool completed = false;

    /** Sustained throughput in bytes/s at clock frequency @p f. */
    double
    throughput(double frequency_hz) const
    {
        return totalCycles == 0
            ? 0.0
            : static_cast<double>(bytesIn) * frequency_hz /
                static_cast<double>(totalCycles);
    }
};

template <typename RecordT>
class PipelineSimSorter
{
  public:
    struct Options
    {
        amt::AmtConfig config;     ///< p, ell, lambdaPipe (unroll 1)
        mem::MemTimingConfig dram; ///< shared interior memory
        mem::MemTimingConfig io;   ///< I/O bus (in and out streams)
        std::uint64_t batchBytes = 1024;
        std::uint64_t recordBytes = 4;
        std::uint64_t presortRun = 16;
        /** Wire a ProtocolChecker over every tree (see SimSorter). */
        bool checked = false;
        /** Engine strategy (see SimSorter::Options::engine). */
        sim::EngineMode engine = sim::EngineMode::FastForward;
    };

    explicit PipelineSimSorter(const Options &opts) : opts_(opts)
    {
        BONSAI_REQUIRE(opts.config.lambdaUnrl == 1,
                       "pipelined sorts use unroll 1");
        BONSAI_REQUIRE(opts.config.lambdaPipe >= 1,
                       "need at least one pipeline stage");
    }

    /**
     * Sort every chunk of @p chunks in place.  Each chunk must be
     * fully sortable in lambda_pipe stages (Equation 5:
     * presortRun * ell^lambda_pipe >= chunk records).
     */
    PipelineSimStats
    sortChunks(std::vector<std::vector<RecordT>> &chunks) const
    {
        PipelineSimStats stats;
        stats.completed = true;
        if (chunks.empty())
            return stats;
        const unsigned depth = opts_.config.lambdaPipe;

        std::vector<ChunkState> state(chunks.size());
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            state[c].buffers[0] = std::move(chunks[c]);
            state[c].buffers[1].resize(state[c].buffers[0].size());
            state[c].runs =
                chunkRuns(state[c].buffers[0].size(),
                          opts_.presortRun);
            stats.bytesIn +=
                state[c].buffers[0].size() * opts_.recordBytes;
        }

        const unsigned total_slots =
            static_cast<unsigned>(chunks.size()) + depth - 1;
        for (unsigned slot = 0; slot < total_slots; ++slot) {
            if (!runSlot(slot, depth, state, stats))
                break;
            ++stats.slots;
        }
        for (std::size_t c = 0; c < chunks.size(); ++c)
            chunks[c] = std::move(state[c].buffers[state[c].liveIdx]);
        return stats;
    }

  private:
    struct ChunkState
    {
        std::vector<RecordT> buffers[2];
        unsigned liveIdx = 0; ///< which buffer holds current data
        std::vector<RunSpan> runs;
    };

    bool
    runSlot(unsigned slot, unsigned depth,
            std::vector<ChunkState> &state,
            PipelineSimStats &stats) const
    {
        sim::SimEngine engine;
        mem::MemoryTiming dram("dram", opts_.dram);
        mem::MemoryTiming io("io", opts_.io);
        const std::uint64_t batch_records = std::max<std::uint64_t>(
            opts_.batchBytes / opts_.recordBytes, 1);

        std::vector<std::unique_ptr<amt::AmtInstance<RecordT>>> amts;
        std::vector<std::unique_ptr<hw::DataLoader<RecordT>>> loaders;
        std::vector<std::unique_ptr<hw::DataWriter<RecordT>>> writers;
        std::vector<ChunkState *> touched;
        std::uint64_t slot_records = 0;
        // Concurrent stages model disjoint DRAM regions: give every
        // active chunk its own address window so bank striping sees
        // distinct stripes (not every loader aliased onto address 0).
        std::uint64_t addr_cursor = 0;

        for (unsigned stage = 0; stage < depth; ++stage) {
            if (stage > slot)
                break;
            const std::size_t c = slot - stage;
            if (c >= state.size())
                continue;
            ChunkState &cs = state[c];
            // A fully-merged chunk rides its remaining pipeline slots
            // through as a pass-through; skipping it changes no run
            // structure and only forgoes some modeled DRAM traffic.
            if (cs.runs.size() <= 1 && stage > 0)
                continue;

            StagePlan plan(cs.runs, opts_.config.ell, 0);
            slot_records += plan.totalRecords();

            const amt::TreeShape shape = amt::makeTreeShape(
                opts_.config.p, opts_.config.ell);
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
            const std::uint64_t chunk_bytes =
                cs.buffers[cs.liveIdx].size() * opts_.recordBytes;
            const std::uint64_t read_base = addr_cursor;
            const std::uint64_t write_base = addr_cursor + chunk_bytes;
            addr_cursor += 2 * chunk_bytes;

            // Stage 0 streams in over the I/O bus (Figure 4 step 1);
            // interior stages read DRAM.
            auto loader = std::make_unique<hw::DataLoader<RecordT>>(
                "loader",
                std::span<const RecordT>(cs.buffers[cs.liveIdx]),
                std::move(feeds), stage == 0 ? io : dram,
                batch_records, stage == 0 ? opts_.presortRun : 0,
                read_base, opts_.recordBytes);

            // The final stage streams out over the I/O bus (step 6);
            // interior stages write DRAM.
            const bool last = (stage + 1 == depth);
            auto writer = std::make_unique<hw::DataWriter<RecordT>>(
                "writer", tree->rootOutput(),
                std::span<RecordT>(cs.buffers[1 - cs.liveIdx]),
                last ? io : dram, opts_.config.p, plan.totalRecords(),
                plan.groups(), batch_records, write_base,
                opts_.recordBytes);

            amts.push_back(std::move(tree));
            loaders.push_back(std::move(loader));
            writers.push_back(std::move(writer));

            cs.runs = plan.outputRuns();
            touched.push_back(&cs);
        }

        if (writers.empty())
            return true; // nothing active this slot

        engine.add(&dram);
        engine.add(&io);
        for (auto &writer : writers) {
            engine.add(writer.get());
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
        // A generous per-slot cycle bound: a slot still running past
        // it has deadlocked.
        const std::uint64_t budget = 100'000 + slot_records * 64;
        const auto result = engine.run(done, budget, opts_.engine);
        stats.totalCycles += result.cycles;
        for (ChunkState *cs : touched)
            cs->liveIdx = 1 - cs->liveIdx;
        if (!result.finished) {
            stats.completed = false;
            return false;
        }
        for (auto &tree : amts)
            tree->finalizeChecks();
        return true;
    }

    Options opts_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_PIPELINE_SIM_HPP
