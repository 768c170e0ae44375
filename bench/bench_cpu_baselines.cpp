/**
 * @file
 * Live CPU microbenchmarks (google-benchmark): the in-process CPU
 * baselines (std::sort, LSD radix, PARADIS-style parallel radix,
 * sample sort) and the Bonsai behavioral engine on this machine, on
 * 16-byte records and on 100-byte gensort records, and one merge
 * tree on its own: the kernel every stage of the engine runs.
 * These ground the CPU side of the comparisons with measured numbers
 * (the paper-scale CPU figures in Table I come from the publications;
 * see bench_table1).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "baseline/cpu_sorters.hpp"
#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/record_buffer.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/merge_tree.hpp"

namespace
{

using namespace bonsai;

std::vector<Record>
workload(std::size_t n)
{
    return makeRecords(n, Distribution::UniformRandom, 1234);
}

std::vector<GensortRecord>
gensortWorkload(std::size_t n)
{
    return GensortGenerator(1234).generate(0, n);
}

void
reportRate(benchmark::State &state, std::size_t n,
           std::size_t record_bytes = sizeof(Record))
{
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * n * record_bytes);
}

void
BM_StdSort(benchmark::State &state)
{
    const auto input = workload(state.range(0));
    for (auto _ : state) {
        auto data = input;
        baseline::stdSort(data);
        benchmark::DoNotOptimize(data.data());
    }
    reportRate(state, input.size());
}

void
BM_LsdRadix(benchmark::State &state)
{
    const auto input = workload(state.range(0));
    for (auto _ : state) {
        auto data = input;
        baseline::lsdRadixSort(data);
        benchmark::DoNotOptimize(data.data());
    }
    reportRate(state, input.size());
}

void
BM_ParallelMsdRadix(benchmark::State &state)
{
    const auto input = workload(state.range(0));
    for (auto _ : state) {
        auto data = input;
        baseline::parallelMsdRadixSort(data);
        benchmark::DoNotOptimize(data.data());
    }
    reportRate(state, input.size());
}

void
BM_SampleSort(benchmark::State &state)
{
    const auto input = workload(state.range(0));
    for (auto _ : state) {
        auto data = input;
        baseline::sampleSortCpu(data);
        benchmark::DoNotOptimize(data.data());
    }
    reportRate(state, input.size());
}

void
BM_BonsaiBehavioral(benchmark::State &state)
{
    const auto input = workload(state.range(0));
    sorter::BehavioralSorter<Record> sorter(
        static_cast<unsigned>(state.range(1)), 16,
        static_cast<unsigned>(state.range(2)));
    for (auto _ : state) {
        auto data = input;
        sorter.sort(data);
        benchmark::DoNotOptimize(data.data());
    }
    reportRate(state, input.size());
}

/** One Record MergeTree over ell presorted runs of n / ell records:
 *  the merge kernel alone, without the presort or the stage plan. */
void
BM_MergeTreeRecord(benchmark::State &state)
{
    auto input = workload(state.range(0));
    const auto ell = static_cast<std::size_t>(state.range(1));
    std::vector<std::span<const Record>> runs;
    for (std::size_t i = 0; i < ell; ++i) {
        const auto lo = input.begin() + input.size() * i / ell;
        const auto hi = input.begin() + input.size() * (i + 1) / ell;
        std::sort(lo, hi);
        runs.emplace_back(&*lo, static_cast<std::size_t>(hi - lo));
    }
    std::vector<Record> out(input.size());
    RecordBuffer<Record> arena;
    for (auto _ : state) {
        sorter::MergeTree<Record> tree(runs, {}, {}, &arena);
        tree.merge(out.data());
        benchmark::DoNotOptimize(out.data());
    }
    reportRate(state, input.size());
}

void
BM_StdSortGensort(benchmark::State &state)
{
    const auto input = gensortWorkload(state.range(0));
    for (auto _ : state) {
        auto data = input;
        std::sort(data.begin(), data.end());
        benchmark::DoNotOptimize(data.data());
    }
    reportRate(state, input.size(), sizeof(GensortRecord));
}

void
BM_BonsaiBehavioralGensort(benchmark::State &state)
{
    const auto input = gensortWorkload(state.range(0));
    sorter::BehavioralSorter<GensortRecord> sorter(
        static_cast<unsigned>(state.range(1)), 16,
        static_cast<unsigned>(state.range(2)));
    for (auto _ : state) {
        auto data = input;
        sorter.sort(data);
        benchmark::DoNotOptimize(data.data());
    }
    reportRate(state, input.size(), sizeof(GensortRecord));
}

BENCHMARK(BM_StdSort)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);
BENCHMARK(BM_LsdRadix)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);
BENCHMARK(BM_ParallelMsdRadix)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->Arg(1 << 22);
BENCHMARK(BM_SampleSort)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);
BENCHMARK(BM_BonsaiBehavioral)
    ->Args({1 << 20, 16, 1})
    ->Args({1 << 20, 64, 1})
    ->Args({1 << 20, 256, 1})
    ->Args({1 << 22, 256, 1})
    ->Args({1 << 22, 256, 4})
    ->Args({1 << 22, 256, 8});
BENCHMARK(BM_MergeTreeRecord)
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 16})
    ->Args({1 << 20, 256});
BENCHMARK(BM_StdSortGensort)->Arg(1 << 20);
BENCHMARK(BM_BonsaiBehavioralGensort)
    ->Args({1 << 20, 32, 1})
    ->Args({1 << 20, 64, 1});

} // namespace

BENCHMARK_MAIN();
