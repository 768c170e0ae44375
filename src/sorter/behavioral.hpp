/**
 * @file
 * Behavioral sorter: the AMT's multistage merge in software — presort
 * into 16-record runs, then ceil(log_ell(N/16)) stages of ell-way
 * merges over contiguous run groups (sorter/run_groups.hpp).  The
 * presort is stable, and the merges keep equal keys in the order the
 * presort left them, so the output is std::stable_sort of the input.
 * The cycle simulator merges the paper's strided leaf groups instead:
 * the two agree on keys, not on the order of equal keys.  Used for
 * GB-scale validation, the large experiment sweeps, and live CPU
 * comparisons.
 *
 * Threading model (docs/ARCHITECTURE.md "Software threading model"):
 * one persistent work-stealing ThreadPool lives for the whole sort.
 * The presort runs as pool tasks over blocks of runs (sorter/presort.hpp:
 * the bitonic network in AVX-512 registers for 16-byte items whose
 * keys do not tie, else std::stable_sort).  Every merge stage is
 * flattened into a list of (group, slice) merge tasks: small groups
 * are one task each, large groups are cut into disjoint Merge Path
 * slices, so both the many-small-group early stages and the
 * single-group final stage saturate all cores.  The tasks run on min(width, tasks) lanes that
 * take them from a shared counter; each task merges with its own
 * MergeTree (stable branch-free 2-way mergers) whose node blocks live
 * in its lane's arena.  Output is byte-identical for every thread
 * count because slices follow the (key, input index, position) total
 * order the merge tree emits.
 *
 * Entries: a range of EntryKeyed records (gensort records) is sorted
 * as 16-byte KeyEntry items — each record's 10-byte key and 48-bit
 * index — from the presort to the last stage, then each record moves
 * once: one gather by index into the scratch, one sequential copy back
 * into the caller's range (sortBuffer swaps the two buffers instead).
 * The presort, the entry build, the gather and the copy are pool
 * tasks.  Entries order as their records do, ties
 * included, so the bytes are those of a sort that moves the records.
 *
 * Buffers: a sort of records the trees move themselves presorts into
 * whichever of the caller's range and the scratch makes the stage
 * ping-pong end in the caller's range, so it never copies its result
 * back.  A sort by entries holds both entry arrays inside the scratch,
 * the last stage's at its far end, where the gather into the scratch
 * reaches an entry only after reading it; it allocates nothing more.
 */

#ifndef BONSAI_SORTER_BEHAVIORAL_HPP
#define BONSAI_SORTER_BEHAVIORAL_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/record.hpp"
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
     * @param presort_run Presort run length (1 disables).
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
     * @p data and @p scratch makes the stage ping-pong end in @p data;
     * a sort by entries gathers into @p scratch and copies back.
     */
    BehavioralStats
    sort(std::span<RecordT> data, ThreadPool &pool,
         RecordBuffer<RecordT> &scratch) const
    {
        if (data.size() <= 1)
            return {};
        std::vector<RunSpan> runs = chunkRuns(data.size(), presortRun_);
        const std::span<RecordT> other = scratch.first(data.size());
        if constexpr (EntryKeyed<RecordT>) {
            BehavioralStats stats =
                sortByEntries(data, std::move(runs), other, true, pool);
            copyInParallel(other, data, pool);
            return stats;
        } else {
            const bool odd = stageCount(runs.size()) % 2 == 1;
            std::span<RecordT> src = odd ? other : data;
            std::span<RecordT> dst = odd ? data : other;
            presortRuns<RecordT>(data, src, presortRun_, pool);
            MergeResult merged = mergeRuns(std::move(runs), src, dst, pool);
            BONSAI_ENSURE(merged.out.data() == data.data(),
                          "the last stage writes the caller's range");
            return std::move(merged.stats);
        }
    }

    /**
     * Sort the first @p n records of @p data with @p scratch.  A sort
     * by entries gathers them into @p scratch and then swaps the two
     * buffers instead of copying them back, so @p data holds the
     * sorted records either way.  Phase 1 of the streamed sort sorts
     * each chunk buffer this way and spills it from where the gather
     * left it.
     */
    BehavioralStats
    sortBuffer(RecordBuffer<RecordT> &data, std::size_t n, ThreadPool &pool,
               RecordBuffer<RecordT> &scratch) const
    {
        BONSAI_REQUIRE(n <= data.size(), "the records lie in the buffer");
        const std::span<RecordT> records(data.data(), n);
        if constexpr (EntryKeyed<RecordT>) {
            if (n > 1) {
                BehavioralStats stats =
                    sortByEntries(records, chunkRuns(n, presortRun_),
                                  scratch.first(n), true, pool);
                std::swap(data, scratch);
                return stats;
            }
        }
        return sort(records, pool, scratch);
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
     * odd one; the returned span says which.  EntryKeyed records merge
     * as entries in @p dst and land in @p dst, gathered from @p src.
     * sort() runs it after the presort, and StreamEngine::sortInPlace
     * runs it as its phase 2.
     */
    MergeResult
    mergeRuns(std::vector<RunSpan> runs, std::span<RecordT> src,
              std::span<RecordT> dst, ThreadPool &pool) const
    {
        if constexpr (EntryKeyed<RecordT>) {
            if (runs.size() > 1) {
                BehavioralStats stats =
                    sortByEntries(src, std::move(runs), dst, false, pool);
                return {dst, std::move(stats)};
            }
        }
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
            RecordBuffer<RecordT> arena;
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
     * Sort @p records into @p out by entries: the entries of the
     * records — presorted in runs of presortRun_ when @p presort, else
     * the entries of the already sorted @p runs — merge stage by stage
     * between two arrays inside @p out, then each record moves once,
     * by index, from @p records to @p out.  @p records is only read.
     */
    BehavioralStats
    sortByEntries(std::span<const RecordT> records, std::vector<RunSpan> runs,
                  std::span<RecordT> out, bool presort, ThreadPool &pool) const
    {
        static_assert(sizeof(RecordT) >= 2 * sizeof(KeyEntry),
                      "two entry arrays fit in the records' bytes");
        const std::uint64_t n = records.size();
        BONSAI_REQUIRE(out.size() == n, "one output slot per record");
        // A byte array begun over out's storage implicitly creates the
        // entries the arrays hold; the gather's memcpy creates the
        // records after them.
        std::byte *const base = ::new (static_cast<void *>(out.data()))
            std::byte[sizeof(RecordT) * n];
        // The front array starts at the first 16-byte boundary of out;
        // the back array, where the last stage writes, at the last one
        // at or below byte (sizeof(RecordT) - 16) * n.  Record i of
        // the gather then ends at or below back[i + 1], so a forward
        // gather reads every entry before it overwrites it.
        constexpr std::uint64_t kAlign = 2 * alignof(KeyEntry);
        constexpr std::uint64_t kLag = sizeof(RecordT) - sizeof(KeyEntry);
        const auto address = reinterpret_cast<std::uintptr_t>(base);
        const std::uint64_t front_at = (kAlign - address % kAlign) % kAlign;
        const std::uint64_t back_at = kLag * n - (address + kLag * n) % kAlign;
        BONSAI_INVARIANT(front_at + sizeof(KeyEntry) * n <= back_at &&
                             back_at + sizeof(KeyEntry) * n <=
                                 sizeof(RecordT) * n &&
                             back_at + kLag >= kLag * n,
                         "the entry arrays lie inside the scratch, the "
                         "last stage's behind every record the gather "
                         "writes before it reads them");
        const std::span<KeyEntry> front(
            std::launder(reinterpret_cast<KeyEntry *>(base + front_at)), n);
        const std::span<KeyEntry> back(
            std::launder(reinterpret_cast<KeyEntry *>(base + back_at)), n);

        const bool odd = stageCount(runs.size()) % 2 == 1;
        const std::span<KeyEntry> first = odd ? front : back;
        presortEntries(records, first, presort ? presortRun_ : 1, pool);
        auto merged = BehavioralSorter<KeyEntry>(ell_, 1, threads_)
                          .mergeRuns(std::move(runs), first,
                                     odd ? back : front, pool);
        BONSAI_ENSURE(merged.out.data() == back.data(),
                      "the last stage writes the back entry array");
        gatherByEntries(records, back, out, pool);
        return std::move(merged.stats);
    }

    /**
     * out[i] = records[entries[i].index()] for every i, where
     * @p entries lies inside @p out's bytes as sortByEntries places
     * it.  Pool tasks gather a wave of records at a time, each wave
     * ending below the first entry it leaves unread; the last few
     * records, where a wave would be short, go on this thread, in
     * order.
     */
    static void
    gatherByEntries(std::span<const RecordT> records,
                    std::span<const KeyEntry> entries,
                    std::span<RecordT> out, ThreadPool &pool)
    {
        const std::uint64_t n = out.size();
        const auto gather = [&](std::uint64_t lo, std::uint64_t hi) {
            for (std::uint64_t i = lo; i < hi; ++i) {
                const std::uint64_t from = entries[i].index();
                std::memcpy(&out[i], &records[from], sizeof(RecordT));
            }
        };
        // Bytes from out's start to entries[0].
        const auto lead = static_cast<std::uint64_t>(
            reinterpret_cast<const std::byte *>(entries.data()) -
            reinterpret_cast<const std::byte *>(out.data()));
        constexpr std::uint64_t kLag = sizeof(RecordT) - sizeof(KeyEntry);
        std::uint64_t done = 0;
        for (;;) {
            // Records [done, done + wave) end at or below
            // entries[done], the first entry still to read.
            const std::uint64_t wave = (lead - kLag * done) / sizeof(RecordT);
            const std::uint64_t tasks = wave / kMinSliceRecords;
            if (pool.threads() <= 1 || tasks < 2)
                break;
            pool.parallelFor(tasks, [&](std::uint64_t t) {
                gather(done + wave * t / tasks, done + wave * (t + 1) / tasks);
            });
            done += wave;
        }
        gather(done, n);
    }

    /** Copy @p from into @p to, as pool tasks over disjoint slices. */
    static void
    copyInParallel(std::span<const RecordT> from, std::span<RecordT> to,
                   ThreadPool &pool)
    {
        const std::uint64_t n = from.size();
        const std::uint64_t tasks =
            std::clamp<std::uint64_t>(n / kMinSliceRecords, 1, pool.threads());
        pool.parallelFor(tasks, [&](std::uint64_t t) {
            const std::uint64_t lo = n * t / tasks;
            const std::uint64_t hi = n * (t + 1) / tasks;
            std::memcpy(to.data() + lo, from.data() + lo,
                        (hi - lo) * sizeof(RecordT));
        });
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
