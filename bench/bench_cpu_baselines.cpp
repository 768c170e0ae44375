/**
 * @file
 * Live CPU microbenchmarks (google-benchmark): the in-process CPU
 * baselines (std::sort, LSD radix, PARADIS-style parallel radix,
 * sample sort) and the Bonsai behavioral engine on this machine, on
 * 16-byte records and on 100-byte gensort records, and merge stages
 * of Record and key-entry trees on their own: the kernel every stage
 * of the engine runs.
 * These ground the CPU side of the comparisons with measured numbers
 * (the paper-scale CPU figures in Table I come from the publications;
 * see bench_table1).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "baseline/cpu_sorters.hpp"
#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/record_buffer.hpp"
#include "common/thread_pool.hpp"
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

/** Key sets of tiedGensortWorkload. */
enum GensortKeys : std::int64_t
{
    kUniformKeys,     ///< gensortWorkload's keys
    kPrefixTieKeys,   ///< bytes 0-7 equal, bytes 8-9 of 4096 values
    kFewDistinctKeys, ///< 16 keys, four to each 8-byte prefix
};

/** gensortWorkload(@p n) with the keys of @p keys: on PrefixTie and
 *  FewDistinct keys every 16-record presort run ties on its entries'
 *  key words. */
std::vector<GensortRecord>
tiedGensortWorkload(std::size_t n, std::int64_t keys)
{
    std::vector<GensortRecord> recs = gensortWorkload(n);
    SplitMix64 rng(99);
    for (GensortRecord &r : recs) {
        std::uint8_t *const b = r.bytes.data();
        if (keys == kPrefixTieKeys) {
            std::fill_n(b, 8, std::uint8_t{0xA5});
            const std::uint64_t tail = rng.nextBounded(4096);
            b[8] = static_cast<std::uint8_t>(tail >> 8);
            b[9] = static_cast<std::uint8_t>(tail);
        } else if (keys == kFewDistinctKeys) {
            const std::uint64_t k = rng.nextBounded(16);
            std::fill_n(b, GensortRecord::kKeyBytes, std::uint8_t{0});
            b[0] = static_cast<std::uint8_t>(1 + k / 4);
            b[9] = static_cast<std::uint8_t>(k % 4);
        }
    }
    return recs;
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

/**
 * The behavioral sort of @p input with {fan-in, threads} from ranges 1
 * and 2.  One pool, one scratch and one data vector live across the
 * iterations, as in a streamed sort's phase 1, so a row times the
 * kernel and the copy of the input, not a pool spawn or the page
 * faults of a fresh scratch.
 */
template <typename RecordT>
void
timeBehavioral(benchmark::State &state, const std::vector<RecordT> &input)
{
    const sorter::BehavioralSorter<RecordT> sorter(
        static_cast<unsigned>(state.range(1)), 16,
        static_cast<unsigned>(state.range(2)));
    ThreadPool pool(sorter.threads());
    RecordBuffer<RecordT> scratch;
    std::vector<RecordT> data(input.size());
    for (auto _ : state) {
        data = input;
        sorter.sort(std::span<RecordT>(data), pool, scratch);
        benchmark::DoNotOptimize(data.data());
    }
    reportRate(state, input.size(), sizeof(RecordT));
}

void
BM_BonsaiBehavioral(benchmark::State &state)
{
    timeBehavioral(state, workload(state.range(0)));
}

/**
 * One merge stage of the n items of @p input: sorted runs of
 * range(2) items, merged ell = range(1) runs at a time by one
 * MergeTree each, all trees borrowing one arena — the kernel every
 * stage of the engine runs, without the presort or the stage plan.
 * A run of n / ell items makes the stage one tree.
 */
template <typename T>
void
timeMergeStage(benchmark::State &state, std::vector<T> input)
{
    const auto ell = static_cast<std::size_t>(state.range(1));
    const auto run = static_cast<std::size_t>(state.range(2));
    std::vector<std::span<const T>> runs;
    for (std::size_t lo = 0; lo < input.size(); lo += run) {
        const std::size_t hi = std::min(input.size(), lo + run);
        std::sort(input.begin() + lo, input.begin() + hi);
        runs.emplace_back(input.data() + lo, hi - lo);
    }
    std::vector<T> out(input.size());
    RecordBuffer<T> arena;
    for (auto _ : state) {
        T *dst = out.data();
        for (std::size_t g = 0; g < runs.size(); g += ell) {
            const std::size_t members = std::min(ell, runs.size() - g);
            sorter::MergeTree<T> tree(
                std::span<const std::span<const T>>(runs).subspan(
                    g, members),
                {}, {}, &arena);
            dst = tree.merge(dst);
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    reportRate(state, input.size(), sizeof(T));
}

/** {n, ell, run}: a stage of Record trees. */
void
BM_MergeTreeRecord(benchmark::State &state)
{
    timeMergeStage(state, workload(state.range(0)));
}

/** {n, ell, run}: a stage of trees of the key entries of n gensort
 *  records, as the phase-1 sort of a gensort chunk merges them. */
void
BM_MergeTreeEntry(benchmark::State &state)
{
    const auto records = gensortWorkload(state.range(0));
    std::vector<KeyEntry> entries;
    entries.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        entries.push_back(keyEntry(records[i], i));
    timeMergeStage(state, std::move(entries));
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

/** {n, ell, threads, keys}: keys as tiedGensortWorkload takes them. */
void
BM_BonsaiBehavioralGensort(benchmark::State &state)
{
    timeBehavioral(state, tiedGensortWorkload(state.range(0),
                                              state.range(3)));
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
// {n, ell, run}: one tree over long runs at ell 2, 16 and 256, then
// the first stage of inmem-16b (4M records, 256-way over the 16-record
// presort runs).
BENCHMARK(BM_MergeTreeRecord)
    ->Args({1 << 20, 2, 1 << 19})
    ->Args({1 << 20, 16, 1 << 16})
    ->Args({1 << 20, 256, 1 << 12})
    ->Args({1 << 22, 256, 16});
// The first stage of the phase-1 chunks of extsort-1pass (167,760
// records, fan-in 32) and extsort-multipass (10,485, 16).
BENCHMARK(BM_MergeTreeEntry)
    ->Args({167760, 32, 16})
    ->Args({10485, 16, 16});
BENCHMARK(BM_StdSortGensort)->Arg(1 << 20);
// {chunk, fan-in, threads, keys}: the phase-1 chunks of extsort-1pass
// (167,760 records, fan-in 32) on uniform, PrefixTie and FewDistinct
// keys and of extsort-multipass (10,485, 16), then 1M records on 1 and
// 4 threads.
BENCHMARK(BM_BonsaiBehavioralGensort)
    ->Args({167760, 32, 1, kUniformKeys})
    ->Args({167760, 32, 1, kPrefixTieKeys})
    ->Args({167760, 32, 1, kFewDistinctKeys})
    ->Args({10485, 16, 1, kUniformKeys})
    ->Args({1 << 20, 32, 1, kUniformKeys})
    ->Args({1 << 20, 32, 4, kUniformKeys})
    ->Args({1 << 20, 64, 1, kUniformKeys});

} // namespace

BENCHMARK_MAIN();
