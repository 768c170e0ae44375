/**
 * @file
 * User-facing sorter facades — the library's top-level API.
 *
 * Each facade couples the Bonsai optimizer (configuration selection)
 * with (a) a behavioral execution that actually sorts the caller's
 * data following the selected AMT's stage plan, and (b) the modeled
 * FPGA wall-clock time from the stage-level simulator, so callers get
 * both a sorted buffer and the paper-comparable performance numbers.
 *
 *  - DramSorter: single-node DRAM-scale sorting (Section IV-A);
 *  - HbmSorter: unrolled configuration on HBM banks (Section IV-B);
 *  - SsdSorter: two-phase terabyte-scale sorting (Section IV-C).
 *    sort(std::vector&) is a thin adapter over the out-of-core
 *    StreamEngine; sortStream() runs the same engine against
 *    RecordSource/RecordSink with bounded resident memory, in the
 *    shape the host planner (core/host_planner.hpp) picks for its
 *    budget.
 *
 * All facades reject the reserved all-zero terminal record at the
 * boundary (Section V-B) and return a zeroed report for empty and
 * single-record inputs instead of invoking the optimizer.
 *
 * Tie order: the host presort and every merge after it are stable,
 * so the output is std::stable_sort of the input — equal keys in
 * input order — for every budget, chunk size, fan-in and thread
 * count, in memory and streamed alike.
 */

#ifndef BONSAI_SORTER_SORTERS_HPP
#define BONSAI_SORTER_SORTERS_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/thread_pool.hpp"
#include "core/host_planner.hpp"
#include "core/optimizer.hpp"
#include "core/platforms.hpp"
#include "core/ssd_planner.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/external.hpp"
#include "sorter/stage_sim.hpp"

namespace bonsai::sorter
{

/** Outcome of a facade sort. */
struct SortReport
{
    amt::AmtConfig config;       ///< Bonsai-selected configuration
    double modeledSeconds = 0.0; ///< stage-level simulated FPGA time
    double predictedSeconds = 0.0; ///< closed-form Equation 1/2 time
    double hostSeconds = 0.0;    ///< behavioral execution wall time
    /** Host <-> DRAM transfer time over the I/O bus (Figure 2 steps
     *  1 and 4: load over PCIe, sorted result back).  Not part of
     *  the paper's sorting-time metric, reported separately. */
    double ioSeconds = 0.0;
    unsigned stages = 0;
    /** Data-movement telemetry, unified with SsdReport::stream. */
    StreamStats stream;

    double
    modeledMsPerGb(std::uint64_t bytes) const
    {
        return toMs(modeledSeconds) / toGb(bytes);
    }

    /** End-to-end time including the host transfers. */
    double
    endToEndSeconds() const
    {
        return modeledSeconds + ioSeconds;
    }
};

/** DRAM-scale latency-optimized sorter (the paper's AWS F1 design). */
class DramSorter
{
  public:
    explicit DramSorter(model::HardwareParams hw = core::awsF1(),
                        model::MergerArchParams arch = {},
                        core::SearchSpace space = {})
        : hw_(hw), arch_(arch), space_(space)
    {
    }

    /** Worker threads for the behavioral execution (1 = serial; the
     *  sorted output is byte-identical for any thread count). */
    void setThreads(unsigned threads)
    {
        threads_ = threads == 0 ? 1 : threads;
    }
    unsigned threads() const { return threads_; }

    /** Sort @p data in place; RecordT is any record type from
     *  common/record.hpp.  @p record_bytes is the modeled width r.
     *  Degenerate inputs (0 or 1 records) are already sorted: they
     *  return a zeroed report without invoking the optimizer. */
    template <typename RecordT>
    SortReport
    sort(std::vector<RecordT> &data, std::uint64_t record_bytes) const
    {
        if (data.size() <= 1) {
            SortReport report;
            report.stream.recordsIn = data.size();
            return report;
        }
        io::requireNoTerminals(data.data(), data.size());
        model::BonsaiInputs in;
        in.array = {data.size(), record_bytes};
        in.hw = hw_;
        in.arch = arch_;
        if (!space_.withPresorter)
            in.arch.presortRunLength = 1;
        core::Optimizer opt(in, space_);
        const auto best = opt.best(core::Objective::Latency);
        if (!best)
            throw std::runtime_error(
                "Bonsai: no feasible AMT configuration");
        return executePlan(data, in, *best);
    }

    const model::HardwareParams &hardware() const { return hw_; }

  protected:
    template <typename RecordT>
    SortReport
    executePlan(std::vector<RecordT> &data,
                const model::BonsaiInputs &in,
                const core::RankedConfig &choice) const
    {
        SortReport report;
        report.config = choice.config;
        report.predictedSeconds = choice.perf.latencySeconds;

        StageSimulator::Options sim;
        sim.config = choice.config;
        sim.array = in.array;
        sim.frequencyHz = in.arch.frequencyHz;
        sim.betaDram = in.hw.betaDram;
        sim.presortRun = in.arch.presortRunLength;
        const StageSimResult timing = StageSimulator(sim).run();
        report.modeledSeconds = timing.totalSeconds;
        report.stages = timing.stages;
        // Figure 2 steps 1 and 4: one inbound and one outbound pass
        // over the I/O bus (full duplex, so they do not overlap with
        // each other only because step 4 needs the sorted result).
        report.ioSeconds = 2.0 *
            static_cast<double>(in.array.totalBytes()) /
            in.hw.betaIo;

        const auto start = std::chrono::steady_clock::now();
        BehavioralSorter<RecordT> engine(choice.config.ell,
                                         in.arch.presortRunLength,
                                         threads_);
        const BehavioralStats moves = engine.sort(data);
        report.hostSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        report.stream.recordsIn = data.size();
        report.stream.recordsMoved = moves.recordsMoved;
        report.stream.phase1RecordsMoved = moves.recordsMoved;
        report.stream.phase1Chunks = 1;
        report.stream.phase1Seconds = report.hostSeconds;
        report.stream.effectiveEll = choice.config.ell;
        return report;
    }

    model::HardwareParams hw_;
    model::MergerArchParams arch_;
    core::SearchSpace space_;
    unsigned threads_ = 1;
};

/** HBM sorter: unrolled trees over many banks (Section IV-B).  The
 *  optimizer searches without per-tree presorters — at 16-way
 *  unrolling they would exceed C_LUT (see EXPERIMENTS.md). */
class HbmSorter : public DramSorter
{
  public:
    explicit HbmSorter(model::HardwareParams hw = core::hbmU50(),
                       model::MergerArchParams arch = {})
        : DramSorter(hw, arch, noPresorterSpace())
    {
    }

  private:
    static core::SearchSpace
    noPresorterSpace()
    {
        core::SearchSpace space;
        space.withPresorter = false;
        return space;
    }
};

/** Two-phase SSD sorter for arrays beyond DRAM capacity. */
class SsdSorter
{
  public:
    explicit SsdSorter(model::HardwareParams hw = core::awsF1(),
                       core::SsdParams ssd = {},
                       model::MergerArchParams arch = {})
        : hw_(hw), ssd_(ssd), arch_(arch)
    {
    }

    /** Worker threads for both phases (1 = serial). */
    void setThreads(unsigned threads)
    {
        threads_ = threads == 0 ? 1 : threads;
    }

    /** Report of a two-phase sort (Table V shape). */
    struct SsdReport
    {
        /** The F1 model plan.  After sortStream() its chunkRecords,
         *  phase1.config.ell and phase2.config.ell name the shape the
         *  engine ran, so a caller can rebuild that engine from them. */
        core::SsdPlan plan;
        /** The host plan sortStream() ran (zeroed for sort()). */
        core::HostPlan host;
        double hostSeconds = 0.0;
        /** Streaming telemetry: spill traffic, records moved per
         *  phase, time inside phase-2 reads and writes. */
        StreamStats stream;
    };

    /** Tuning knobs for the out-of-core sortStream() path. */
    struct StreamOptions
    {
        /** Total resident-memory budget, 0 = 256 MiB.  The host
         *  planner (core/host_planner.hpp) books each phase against
         *  it: phase 1 holds two chunk buffers plus one chunk of sort
         *  scratch, each chunk a quarter of the budget; phase 2 holds
         *  the batch pool plus one arena per merge lane (its trees'
         *  node blocks and, for gensort records, entry batches), and
         *  books at most what phase 1 does.  Phase 1's gensort trees
         *  merge 16-byte key entries in arenas of their own, which the
         *  plan does not book. */
        std::uint64_t memoryBudgetBytes = 0;
        /** Spill directory for run files ("" = $TMPDIR or /tmp). */
        std::string spillDir;
        /** Job directory for crash-consistent checkpointing ("" =
         *  off).  When set, spills are named files under this
         *  directory next to a durable job manifest, and a rerun of
         *  the same request resumes from the last committed chunk or
         *  merge pass. */
        std::string checkpointDir;
        /** With checkpointDir: require a valid checkpoint and fail
         *  with the validation reason when there is none (the
         *  --resume contract).  false = resume when valid, loud
         *  fresh fallback otherwise. */
        bool resume = false;
    };

    /**
     * In-memory adapter over the out-of-core engine: phase 1 sorts
     * chunk ranges of @p data in place (no per-chunk copy), phase 2
     * merges between @p data and one scratch buffer with the Merge
     * Path parallel kernel.
     */
    template <typename RecordT>
    SsdReport
    sort(std::vector<RecordT> &data, std::uint64_t record_bytes) const
    {
        SsdReport report;
        report.stream.recordsIn = data.size();
        if (data.size() <= 1)
            return report;
        io::requireNoTerminals(data.data(), data.size());
        model::ArrayParams array{data.size(), record_bytes};
        const auto plan =
            core::planSsdSort(array, hw_, arch_, ssd_);
        if (!plan)
            throw std::runtime_error(
                "Bonsai: no feasible SSD two-phase plan");
        report.plan = *plan;

        typename StreamEngine<RecordT>::Options eng;
        eng.phase1Ell = plan->phase1.config.ell;
        eng.phase2Ell = plan->phase2.config.ell;
        eng.presortRun = arch_.presortRunLength;
        eng.chunkRecords = plan->chunkRecords;
        eng.threads = threads_;

        const auto start = std::chrono::steady_clock::now();
        report.stream = StreamEngine<RecordT>(eng).sortInPlace(data);
        report.hostSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        return report;
    }

    /**
     * True out-of-core sort: stream @p source through spill files into
     * @p sink with resident memory bounded by the options' budget,
     * independent of the dataset size.  The host planner picks the
     * chunk, the phase-2 fan-in, the slot b and the lanes for the
     * fewest Equation-1 passes within the budget; the F1 plan only
     * labels the report and lends phase 1 its fan-in.  The emitted
     * record sequence is identical to the in-memory path's for the
     * same input, ties included.
     */
    template <typename RecordT>
    SsdReport
    sortStream(io::RecordSource<RecordT> &source,
               io::RecordSink<RecordT> &sink,
               std::uint64_t record_bytes,
               const StreamOptions &opts = {}) const
    {
        const std::uint64_t n = source.totalRecords();
        SsdReport report;
        report.stream.recordsIn = n;
        if (n <= 1) {
            RecordT rec;
            if (n == 1) {
                if (source.read(&rec, 1) == 0)
                    contracts::fail("precondition", "source.read() != 0",
                                    __FILE__, __LINE__,
                                    "record source ended at record 0 "
                                    "but declared 1");
                io::requireNoTerminals(&rec, 1);
                sink.write(&rec, 1);
            }
            sink.finish();
            return report;
        }

        const std::uint64_t budget = opts.memoryBudgetBytes != 0
            ? opts.memoryBudgetBytes : (256ULL << 20);
        const auto host = core::planHostSort(
            {.records = n,
             .recordBytes = sizeof(RecordT),
             .budgetBytes = budget,
             .threads = threads_,
             .entries = EntryKeyed<RecordT>});
        if (!host)
            throw std::runtime_error(
                "Bonsai: a " + std::to_string(budget) +
                "-byte memory budget is too small for a streamed sort "
                "of " + std::to_string(sizeof(RecordT)) +
                "-byte records");
        report.host = *host;
        // The F1 plan at the host's chunk is the reproduction's output;
        // the host runs its phase-1 fan-in when there is one, and the
        // engine's default when the F1 cannot sort such a chunk.
        typename StreamEngine<RecordT>::Options eng;
        const auto plan = core::planSsdSort(
            {n, record_bytes}, hw_, arch_, ssd_,
            host->chunkRecords * record_bytes);
        if (plan) {
            report.plan = *plan;
            eng.phase1Ell = plan->phase1.config.ell;
        }
        report.plan.chunkRecords = host->chunkRecords;
        report.plan.phase1.config.ell = eng.phase1Ell;
        report.plan.phase2.config.ell = host->ell;

        eng.phase2Ell = host->ell;
        eng.presortRun = arch_.presortRunLength;
        eng.chunkRecords = host->chunkRecords;
        eng.bufferBudgetBytes = host->poolBytes;
        eng.batchRecords = host->batchRecords;
        eng.threads = threads_;

        SortRequest<RecordT> req{.source = &source, .sink = &sink};
        req.durable.dir = opts.checkpointDir;
        req.durable.policy = opts.resume ? ResumePolicy::ResumeStrict
                                         : ResumePolicy::ResumeOrFresh;
        const auto start = std::chrono::steady_clock::now();
        // FileRunStore creates its temp file on construction: build
        // the pair only when the sort spills to it.
        std::optional<io::FileRunStore<RecordT>> front;
        std::optional<io::FileRunStore<RecordT>> back;
        if (opts.checkpointDir.empty()) {
            req.front = &front.emplace(opts.spillDir);
            req.back = &back.emplace(opts.spillDir);
        }
        report.stream = StreamEngine<RecordT>(eng).sortStream(req);
        if (plan)
            report.stream.modelBatchRecords =
                plan->phase2.batchBytes / record_bytes;
        report.stream.plannedPasses = host->passes;
        report.stream.plannedPassBytes = host->passBytes;
        report.hostSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        return report;
    }

  private:
    model::HardwareParams hw_;
    core::SsdParams ssd_;
    model::MergerArchParams arch_;
    unsigned threads_ = 1;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_SORTERS_HPP
