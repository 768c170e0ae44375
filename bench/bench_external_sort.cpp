/**
 * @file
 * Out-of-core streaming sort benchmarks (google-benchmark).
 *
 * BM_StreamedVsInMemory prices what the streaming layer costs over the
 * in-memory adapter on the same records and engine options: the
 * streamed run sorts through two spill files and the bounded buffer
 * pool, the in-memory run through the zero-copy Merge Path passes.
 * The gap is the spill I/O that the kernel's readahead and
 * write-behind fail to hide (the stall telemetry on the counters
 * shows the seconds spent inside phase-2 reads and writes).
 *
 * BM_StreamBatchSize sweeps the batch size b at a fixed pool budget —
 * larger b means fewer, bigger I/O calls but a smaller effective
 * fan-in (Equation 10's b * ell trade), so ms/GB is U-shaped.
 *
 * BM_StreamThreads sweeps the thread count on memory-backed run
 * stores (so storage bandwidth does not mask compute), splitting the
 * wall clock into phase-1 and phase-2 seconds — the axis that shows
 * whether the parallel phase-2 merge (concurrent groups + the
 * splitter-partitioned final pass) actually scales.  Before the
 * google-benchmark suite runs, main() executes one deterministic
 * threads sweep and writes it to BENCH_external_sort.json so the
 * streamed-sort trajectory is tracked across commits.
 *
 * Run:  ./build/bench/bench_external_sort
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/external.hpp"

namespace
{

using namespace bonsai;

sorter::StreamEngine<Record>::Options
engineOptions(std::uint64_t batch_records)
{
    sorter::StreamEngine<Record>::Options opt;
    opt.phase1Ell = 16;
    opt.phase2Ell = 16;
    opt.chunkRecords = 1 << 16; // 1 MiB chunks
    opt.batchRecords = batch_records;
    opt.bufferBudgetBytes = 4ULL << 20;
    opt.threads = 2;
    return opt;
}

void
BM_StreamedVsInMemory(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const bool streamed = state.range(1) != 0;
    const auto input =
        makeRecords(n, Distribution::UniformRandom, 1234);
    const sorter::StreamEngine<Record> engine(engineOptions(1 << 12));

    sorter::StreamStats last;
    for (auto _ : state) {
        if (streamed) {
            io::MemorySource<Record> source{
                std::span<const Record>(input)};
            std::vector<Record> out;
            out.reserve(n);
            io::MemorySink<Record> sink(out);
            io::FileRunStore<Record> front;
            io::FileRunStore<Record> back;
            last = engine.sortStream(source, sink, front, back);
            benchmark::DoNotOptimize(out.data());
        } else {
            auto data = input;
            last = engine.sortInPlace(data);
            benchmark::DoNotOptimize(data.data());
        }
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * n *
        sizeof(Record));
    state.counters["merge_passes"] =
        static_cast<double>(last.mergePasses);
    state.counters["read_stall_ms"] = last.readStallSeconds * 1e3;
    state.counters["write_stall_ms"] = last.writeStallSeconds * 1e3;
    // Retry telemetry: nonzero on a healthy device means the spill
    // path is absorbing real transient faults (and paying backoff).
    state.counters["io_transient_retries"] =
        static_cast<double>(last.ioTransientRetries);
    state.counters["io_eintr_retries"] =
        static_cast<double>(last.ioEintrRetries);
    state.counters["io_short_transfers"] =
        static_cast<double>(last.ioShortTransfers);
}

void
BM_StreamBatchSize(benchmark::State &state)
{
    const std::size_t n = 1 << 21; // 32 MiB of records
    const std::uint64_t batch =
        static_cast<std::uint64_t>(state.range(0));
    const auto input =
        makeRecords(n, Distribution::UniformRandom, 77);
    const sorter::StreamEngine<Record> engine(engineOptions(batch));

    sorter::StreamStats last;
    for (auto _ : state) {
        io::MemorySource<Record> source{
            std::span<const Record>(input)};
        std::vector<Record> out;
        out.reserve(n);
        io::MemorySink<Record> sink(out);
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        last = engine.sortStream(source, sink, front, back);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * n *
        sizeof(Record));
    state.counters["batch_records"] = static_cast<double>(batch);
    state.counters["effective_ell"] =
        static_cast<double>(last.effectiveEll);
}

/** One streamed sort over memory-backed run stores at @p threads.
 *  Fan-in 8 with a 16 MiB pool: 256 buffers hold up to 14 lanes of
 *  laneBuffers(8) = 18 buffers, so the budget never caps the thread
 *  axis.  Each lane merges and does its run I/O on one pool thread. */
sorter::StreamStats
streamOnMemoryStores(const std::vector<Record> &input, unsigned threads,
                     std::vector<Record> &out)
{
    auto opt = engineOptions(1 << 12);
    opt.phase2Ell = 8;
    opt.bufferBudgetBytes = 16ULL << 20;
    opt.threads = threads;
    const sorter::StreamEngine<Record> engine(opt);
    io::MemorySource<Record> source{std::span<const Record>(input)};
    out.clear();
    out.reserve(input.size());
    io::MemorySink<Record> sink(out);
    std::vector<Record> fbuf(input.size());
    std::vector<Record> bbuf(input.size());
    io::MemoryRunStore<Record> front({fbuf.data(), fbuf.size()});
    io::MemoryRunStore<Record> back({bbuf.data(), bbuf.size()});
    return engine.sortStream(source, sink, front, back);
}

void
BM_StreamThreads(benchmark::State &state)
{
    const std::size_t n = 1 << 21; // 32 MiB of records
    const unsigned threads = static_cast<unsigned>(state.range(0));
    const auto input =
        makeRecords(n, Distribution::UniformRandom, 4242);

    sorter::StreamStats last;
    std::vector<Record> out;
    for (auto _ : state) {
        last = streamOnMemoryStores(input, threads, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * n *
        sizeof(Record));
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["phase1_ms"] = last.phase1Seconds * 1e3;
    state.counters["phase2_ms"] = last.phase2Seconds * 1e3;
    state.counters["lanes"] =
        static_cast<double>(last.concurrentGroups);
    state.counters["final_slices"] =
        static_cast<double>(last.finalSlices);
}

/** Deterministic threads sweep written to BENCH_external_sort.json:
 *  one warm-up plus one measured run per thread count, phase-split,
 *  so the scaling trajectory is tracked without benchmark-runner
 *  noise filtering. */
void
runThreadsSweep()
{
    const std::size_t n = 1 << 21;
    const auto input =
        makeRecords(n, Distribution::UniformRandom, 4242);

    bench::JsonReporter json("external_sort");
    json.config("records", static_cast<std::uint64_t>(n));
    json.config("record_bytes",
                static_cast<std::uint64_t>(sizeof(Record)));
    json.config("store", "memory");
    json.config("batch_records",
                static_cast<std::uint64_t>(1 << 12));

    bench::title("streamed sort: threads sweep (memory-backed "
                 "stores, phase split)");
    std::printf("%8s %10s %10s %10s %6s %7s\n", "threads",
                "total_ms", "phase1_ms", "phase2_ms", "lanes",
                "slices");
    std::vector<Record> out;
    double serial_phase2 = 0.0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        streamOnMemoryStores(input, threads, out); // warm-up
        const sorter::StreamStats s =
            streamOnMemoryStores(input, threads, out);
        if (threads == 1)
            serial_phase2 = s.phase2Seconds;
        json.beginPoint();
        json.field("threads", static_cast<std::uint64_t>(threads));
        json.field("phase1_seconds", s.phase1Seconds);
        json.field("phase2_seconds", s.phase2Seconds);
        json.field("lanes",
                   static_cast<std::uint64_t>(s.concurrentGroups));
        json.field("final_slices",
                   static_cast<std::uint64_t>(s.finalSlices));
        json.field("phase2_speedup",
                   s.phase2Seconds > 0.0
                       ? serial_phase2 / s.phase2Seconds
                       : 0.0);
        std::printf("%8u %10.2f %10.2f %10.2f %6u %7u\n", threads,
                    (s.phase1Seconds + s.phase2Seconds) * 1e3,
                    s.phase1Seconds * 1e3, s.phase2Seconds * 1e3,
                    s.concurrentGroups, s.finalSlices);
    }
    json.write();
    bench::rule();
}

BENCHMARK(BM_StreamedVsInMemory)
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1})
    ->Args({1 << 22, 0})
    ->Args({1 << 22, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_StreamBatchSize)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Arg(1 << 15) // 8-buffer pool: fan-in squeezed to 3
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_StreamThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

int
main(int argc, char **argv)
{
    runThreadsSweep();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
