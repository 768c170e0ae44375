/**
 * @file
 * Thread-scaling ablation for the behavioral sorter (google-benchmark).
 *
 * The headline measurement is the *final merge stage*: ell sorted
 * runs collapsing into one group — the stage that ran on a
 * single core before Merge Path intra-group parallelism, because
 * group-level parallelism has exactly one group to hand out.  On a
 * multi-core host BM_FinalStageMerge at 8 threads should run >= 3x
 * faster than at 1 thread for the 256 MiB input (1 << 24 records of
 * 16 bytes); every threaded run is checked byte-for-byte against the
 * serial merge before timing starts.
 *
 * BM_FullSortScaling covers the end-to-end sort (presort + all
 * stages) at the same thread counts, and BM_PartitionOverhead prices
 * the Merge Path cut computation itself.
 *
 * Run:  ./build/bench/bench_ablation_threads
 *       [--benchmark_filter=FinalStage]
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "common/record_buffer.hpp"
#include "common/thread_pool.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/merge_path.hpp"
#include "sorter/run_groups.hpp"

namespace
{

using namespace bonsai;

constexpr unsigned kEll = 16; // fan-in of the measured final stage

/** n records pre-partitioned into kEll sorted runs (a final-stage
 *  input), cached across benchmark registrations. */
const std::vector<Record> &
finalStageInput(std::size_t n)
{
    static std::map<std::size_t, std::vector<Record>> cache;
    auto it = cache.find(n);
    if (it != cache.end())
        return it->second;
    auto data = makeRecords(n, Distribution::UniformRandom, 4242);
    for (const RunSpan &run : chunkRuns(n, (n + kEll - 1) / kEll))
        std::sort(data.begin() + run.offset,
                  data.begin() + run.offset + run.length);
    return cache.emplace(n, std::move(data)).first->second;
}

std::vector<RunSpan>
finalStageRuns(std::size_t n)
{
    return chunkRuns(n, (n + kEll - 1) / kEll);
}

void
BM_FinalStageMerge(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const unsigned threads = static_cast<unsigned>(state.range(1));
    const std::vector<Record> &src = finalStageInput(n);
    const std::vector<RunSpan> runs = finalStageRuns(n);
    const sorter::RunGroups groups(runs, kEll);
    const sorter::BehavioralSorter<Record> sorter(kEll, 16, threads);
    std::vector<Record> dst(n);

    // Determinism gate: the threaded stage must be byte-identical to
    // the serial stage before its timing means anything.
    {
        std::vector<Record> serial(n);
        ThreadPool one(1);
        sorter.runStage(groups, src, serial, one);
        ThreadPool pool(threads);
        sorter.runStage(groups, src, dst, pool);
        if (std::memcmp(serial.data(), dst.data(),
                        n * sizeof(Record)) != 0) {
            state.SkipWithError(
                "threaded final stage is not byte-identical");
            return;
        }
    }

    ThreadPool pool(threads);
    for (auto _ : state)
        sorter.runStage(groups, src, dst, pool);
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * n *
        sizeof(Record));
    state.counters["threads"] = threads;
}

void
BM_FullSortScaling(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const unsigned threads = static_cast<unsigned>(state.range(1));
    const auto input =
        makeRecords(n, Distribution::UniformRandom, 99);
    const sorter::BehavioralSorter<Record> sorter(64, 16, threads);
    // One pool, scratch and data vector for every iteration, so the
    // row times the sort, not a pool spawn or a fresh scratch's faults.
    ThreadPool pool(threads);
    RecordBuffer<Record> scratch;
    std::vector<Record> data(n);
    for (auto _ : state) {
        data = input;
        sorter.sort(std::span<Record>(data), pool, scratch);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * n *
        sizeof(Record));
    state.counters["threads"] = threads;
}

void
BM_PartitionOverhead(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const unsigned parts = static_cast<unsigned>(state.range(1));
    const std::vector<Record> &src = finalStageInput(n);
    std::vector<std::span<const Record>> inputs;
    for (const RunSpan &run : finalStageRuns(n))
        inputs.emplace_back(src.data() + run.offset, run.length);
    const sorter::MergePath<Record> path(std::move(inputs));
    for (auto _ : state) {
        auto bounds = path.partition(parts);
        benchmark::DoNotOptimize(bounds.data());
    }
}

// 64 MiB and the acceptance-scale 256 MiB final-stage inputs.
BENCHMARK(BM_FinalStageMerge)
    ->Args({1 << 22, 1})
    ->Args({1 << 22, 2})
    ->Args({1 << 22, 4})
    ->Args({1 << 22, 8})
    ->Args({1 << 24, 1})
    ->Args({1 << 24, 2})
    ->Args({1 << 24, 4})
    ->Args({1 << 24, 8})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK(BM_FullSortScaling)
    ->Args({1 << 22, 1})
    ->Args({1 << 22, 2})
    ->Args({1 << 22, 4})
    ->Args({1 << 22, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_PartitionOverhead)
    ->Args({1 << 22, 8})
    ->Args({1 << 24, 8})
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
