/**
 * @file
 * Behavioral sorter: the AMT's multistage merge in software — presort
 * into 16-record runs with the bitonic network, then
 * ceil(log_ell(N/16)) stages of ell-way merges over contiguous run
 * groups (sorter/run_groups.hpp).  The merges keep equal keys in the
 * order the presort left them, so the output is each aligned
 * 16-record block through the network, then the whole stable-sorted.
 * The cycle simulator merges the paper's strided leaf groups instead:
 * the two agree on keys, not on the order of equal keys.  Used for
 * GB-scale validation, the large experiment sweeps, and live CPU
 * comparisons.
 *
 * Threading model (docs/ARCHITECTURE.md "Software threading model"):
 * one persistent work-stealing ThreadPool lives for the whole sort.
 * The presort runs as pool tasks over blocks of runs (sorter/presort.hpp:
 * the network in AVX-512 registers for 16-byte records, on key tags
 * for gensort records, else hw::bitonicSortNetwork).  Every merge stage is flattened into a
 * list of (group, slice) merge tasks: small groups are one task each,
 * large groups are cut into disjoint Merge Path slices, so both the
 * many-small-group early stages and the single-group final stage
 * saturate all cores.  The tasks run on min(width, tasks) lanes that
 * take them from a shared counter; each task merges with its own
 * MergeTree (stable branch-free 2-way mergers) whose node blocks —
 * 16-byte key entries for gensort records — live in its lane's arena.  Output is byte-identical for every thread
 * count because slices follow the (key, input index, position) total
 * order the merge tree emits.
 *
 * Buffers: the presort writes into whichever of the caller's range
 * and the scratch makes the stage ping-pong end in the caller's
 * range, so a sort never copies its result back.
 */

#ifndef BONSAI_SORTER_BEHAVIORAL_HPP
#define BONSAI_SORTER_BEHAVIORAL_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contract.hpp"
#include "common/record_buffer.hpp"
#include "common/run.hpp"
#include "common/thread_pool.hpp"
#include "sorter/merge_path.hpp"
#include "sorter/merge_tree.hpp"
#include "sorter/presort.hpp"
#include "sorter/run_groups.hpp"

namespace bonsai::sorter
{

/** Statistics from a behavioral sort. */
struct BehavioralStats
{
    unsigned stages = 0;
    std::uint64_t recordsMoved = 0; ///< total across stages
    std::vector<std::uint64_t> groupsPerStage;

    friend bool operator==(const BehavioralStats &,
                           const BehavioralStats &) = default;
};

template <typename RecordT>
class BehavioralSorter
{
  public:
    /** Groups below this size are not worth partitioning. */
    static constexpr std::uint64_t kMinSliceRecords = 4096;

    /**
     * @param ell Merge fan-in per stage.
     * @param presort_run Bitonic presorter run length (1 disables).
     * @param threads Worker threads shared by the group-level and
     *        intra-group (Merge Path) merge tasks; 1 = serial.
     */
    explicit BehavioralSorter(unsigned ell,
                              std::uint64_t presort_run = 16,
                              unsigned threads = 1)
        : ell_(ell), presortRun_(presort_run ? presort_run : 1),
          threads_(threads == 0 ? 1 : threads)
    {
    }

    unsigned threads() const { return threads_; }

    /** Sort @p data in place; returns per-stage statistics. */
    BehavioralStats
    sort(std::vector<RecordT> &data) const
    {
        if (data.size() <= 1)
            return {};
        ThreadPool pool(threads_); // persists across all stages
        return sort(data, pool);
    }

    /**
     * Sort @p data in place on a caller-provided pool.  Lets callers
     * that sort many buffers (the SSD sorter's phase-1 chunk loop)
     * keep one pool alive across all of them instead of paying a
     * worker spawn/join per call; @p pool's width overrides the
     * constructor's thread count.
     */
    BehavioralStats
    sort(std::vector<RecordT> &data, ThreadPool &pool) const
    {
        return sort(std::span<RecordT>(data), pool);
    }

    /**
     * Sort a caller-owned range in place — the out-of-core engine's
     * phase 1 sorts each streamed chunk this way, with no per-chunk
     * copy round trip.
     */
    BehavioralStats
    sort(std::span<RecordT> data, ThreadPool &pool) const
    {
        RecordBuffer<RecordT> scratch;
        return sort(data, pool, scratch);
    }

    /**
     * As above, with caller-owned @p scratch that grows to the range
     * on demand and is never zero-filled, so a caller sorting many
     * chunks allocates it once.  The presort writes into whichever of
     * @p data and @p scratch makes the stage ping-pong end in @p data.
     */
    BehavioralStats
    sort(std::span<RecordT> data, ThreadPool &pool,
         RecordBuffer<RecordT> &scratch) const
    {
        if (data.size() <= 1)
            return {};
        std::vector<RunSpan> runs = chunkRuns(data.size(), presortRun_);
        const bool odd = stageCount(runs.size()) % 2 == 1;
        const std::span<RecordT> other = scratch.first(data.size());
        std::span<RecordT> src = odd ? other : data;
        std::span<RecordT> dst = odd ? data : other;
        presortRuns<RecordT>(data, src, presortRun_, pool);
        MergeResult merged = mergeRuns(std::move(runs), src, dst, pool);
        BONSAI_ENSURE(merged.out.data() == data.data(),
                      "the last stage writes the caller's range");
        return std::move(merged.stats);
    }

    /** Where mergeRuns left its result, and what it cost. */
    struct MergeResult
    {
        std::span<RecordT> out; ///< @p src or @p dst of mergeRuns
        BehavioralStats stats;
    };

    /**
     * Merge the sorted, adjacent @p runs of @p src down to one run,
     * one stage of RunGroups at a time, each stage reading one of
     * @p src and @p dst and writing the other.  The result lands in
     * @p src after an even number of stages and in @p dst after an
     * odd one; the returned span says which.  sort() runs it after
     * the presort, and StreamEngine::sortInPlace runs it as its
     * phase 2.
     */
    MergeResult
    mergeRuns(std::vector<RunSpan> runs, std::span<RecordT> src,
              std::span<RecordT> dst, ThreadPool &pool) const
    {
        BehavioralStats stats;
        while (runs.size() > 1) {
            const RunGroups groups(runs, ell_);
            runStage(groups, src, dst, pool);
            stats.groupsPerStage.push_back(groups.count());
            stats.recordsMoved += groups.totalRecords();
            ++stats.stages;
            runs = groups.outputs();
            std::swap(src, dst);
        }
        return {src, std::move(stats)};
    }

    /**
     * Execute one merge stage of @p groups from @p src into @p dst on
     * @p pool.  Public so stage-level benchmarks (bench_ablation_
     * threads) reuse the exact scheduling the full sort uses.  Groups
     * write disjoint output runs and slices write disjoint
     * sub-ranges, so all tasks run concurrently; the result is
     * byte-identical for any pool width.
     */
    void
    runStage(const RunGroups &groups, std::span<const RecordT> src,
             std::span<RecordT> dst, ThreadPool &pool) const
    {
        const std::uint64_t stage_total = groups.totalRecords();
        const unsigned width = pool.threads();

        struct SliceTask
        {
            std::vector<std::span<const RecordT>> members;
            std::vector<std::uint64_t> begin; ///< empty = full extent
            std::vector<std::uint64_t> end;
            RecordT *out;
        };
        std::vector<SliceTask> tasks;
        tasks.reserve(groups.count());
        for (std::uint64_t g = 0; g < groups.count(); ++g) {
            std::vector<std::span<const RecordT>> members;
            for (const RunSpan &run : groups.members(g))
                members.emplace_back(src.data() + run.offset,
                                     run.length);
            const RunSpan out = groups.output(g);
            RecordT *base = dst.data() + out.offset;
            const unsigned slices =
                sliceCount(out.length, stage_total, width);
            if (slices <= 1) {
                tasks.push_back(
                    SliceTask{std::move(members), {}, {}, base});
                continue;
            }
            const MergePath<RecordT> path(members);
            const auto bounds = path.partition(slices);
            std::uint64_t rank = 0;
            for (unsigned t = 0; t < slices; ++t) {
                tasks.push_back(SliceTask{members, bounds[t],
                                          bounds[t + 1], base + rank});
                rank = out.length * (t + 1) / slices;
            }
        }

        // One merge tree per task, on lanes that take the tasks in
        // turn; a lane's trees borrow its arena for their node blocks,
        // so the blocks are allocated once per lane, not per tree.
        const std::size_t lanes =
            std::min<std::size_t>(width, tasks.size());
        std::atomic<std::size_t> next{0};
        pool.parallelFor(lanes, [&](std::uint64_t) {
            RecordBuffer<typename MergeTree<RecordT>::Block> arena;
            for (std::size_t i = next.fetch_add(1); i < tasks.size();
                 i = next.fetch_add(1)) {
                const SliceTask &task = tasks[i];
                MergeTree<RecordT>(task.members, task.begin, task.end,
                                   &arena)
                    .merge(task.out);
            }
        });
    }

  private:
    /** Merge stages that reduce @p runs presorted runs to one. */
    unsigned
    stageCount(std::uint64_t runs) const
    {
        unsigned stages = 0;
        for (; runs > 1; runs = (runs + ell_ - 1) / ell_)
            ++stages;
        return stages;
    }

    /**
     * Merge Path slices for a group of @p group_len records within a
     * stage of @p stage_total records: each group gets a share of the
     * pool proportional to its size, so a stage with G >= width groups
     * runs one task per group while the final single-group stage is
     * cut @p width ways.
     */
    static unsigned
    sliceCount(std::uint64_t group_len, std::uint64_t stage_total,
               unsigned width)
    {
        if (width <= 1 || group_len < kMinSliceRecords ||
            stage_total == 0)
            return 1;
        const std::uint64_t share =
            (group_len * width + stage_total - 1) / stage_total;
        return static_cast<unsigned>(
            std::min<std::uint64_t>(share ? share : 1, width));
    }

    unsigned ell_;
    std::uint64_t presortRun_;
    unsigned threads_;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_BEHAVIORAL_HPP
