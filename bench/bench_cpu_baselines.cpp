/**
 * @file
 * Live CPU microbenchmarks (google-benchmark): the in-process CPU
 * baselines (std::sort, LSD radix, PARADIS-style parallel radix,
 * sample sort) and the Bonsai behavioral engine on this machine, on
 * 16-byte records and on 100-byte gensort records.
 * These ground the CPU side of the comparisons with measured numbers
 * (the paper-scale CPU figures in Table I come from the publications;
 * see bench_table1).
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "baseline/cpu_sorters.hpp"
#include "common/gensort.hpp"
#include "common/random.hpp"
#include "sorter/behavioral.hpp"

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
BENCHMARK(BM_StdSortGensort)->Arg(1 << 20);
BENCHMARK(BM_BonsaiBehavioralGensort)
    ->Args({1 << 20, 32, 1})
    ->Args({1 << 20, 64, 1});

} // namespace

BENCHMARK_MAIN();
