/**
 * @file
 * Terabyte-scale SSD sorting example (Section IV-C).
 *
 * Prints the full two-phase Bonsai plan for sorting 2 TB of gensort
 * records on an F1 + 2 TB SSD, then executes a capacity-scaled
 * version of the same plan in memory (the "SSD" shrunk by a scale
 * factor so the example runs in seconds) and validates the output.
 * Finally runs the same dataset through the out-of-core streaming
 * path — spill files, bounded buffer pool, batched run I/O — and
 * checks it reproduces the in-memory result byte for byte.
 *
 * Build & run:  ./build/examples/terabyte_ssd [scale_records]
 */

#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "common/checks.hpp"
#include "common/gensort.hpp"
#include "common/random.hpp"
#include "io/stream.hpp"
#include "sorter/sorters.hpp"

int
main(int argc, char **argv)
{
    using namespace bonsai;

    // ---- The full-scale plan the paper's Table V describes.
    std::printf("Full-scale plan: 2 TB of 100-byte gensort records "
                "(16-byte packed) on AWS F1 + SSD\n");
    model::ArrayParams full{2 * kTB / 16, 16};
    const auto plan = core::planSsdSort(full, core::awsF1(), {},
                                        core::SsdParams{});
    if (!plan) {
        std::printf("no feasible plan\n");
        return 1;
    }
    std::printf("  phase 1: %u-deep pipeline of AMT(%u, %u) at "
                "%.1f GB/s  -> %.0f s\n",
                plan->phase1.config.lambdaPipe, plan->phase1.config.p,
                plan->phase1.config.ell,
                plan->phase1.perf.throughputBytesPerSec / kGB,
                plan->phase1Seconds);
    std::printf("  reprogram FPGA: %.1f s\n", plan->reprogramSeconds);
    std::printf("  phase 2: AMT(%u, %u), %u SSD round trip(s) "
                "-> %.0f s\n",
                plan->phase2.config.p, plan->phase2.config.ell,
                plan->phase2Stages, plan->phase2Seconds);
    std::printf("  total: %.1f s (%.2f GB/s end to end)\n\n",
                plan->totalSeconds(),
                2 * kTB / plan->totalSeconds() / kGB);

    // ---- Scaled-down execution with real data.
    std::size_t n = 400'000;
    if (argc > 1)
        n = std::strtoull(argv[1], nullptr, 10);
    std::printf("Scaled execution: %zu gensort records, DRAM scaled "
                "to 1/8 of the input\n", n);
    GensortGenerator gen(2020);
    auto packed = packGensort(gen.generate(0, n));
    const Fingerprint before =
        fingerprint(std::span<const Record128>(packed));

    model::HardwareParams hw = core::awsF1();
    hw.cDram = n * 16 / 8; // force multi-chunk two-phase behaviour
    sorter::SsdSorter sorter(hw);
    const auto report = sorter.sort(packed, 16);

    const bool ok = isSorted(std::span<const Record128>(packed)) &&
        before == fingerprint(std::span<const Record128>(packed));
    std::printf("  chunks of %llu records, %u phase-2 round trip(s)\n",
                static_cast<unsigned long long>(
                    report.plan.chunkRecords),
                report.plan.phase2Stages);
    std::printf("  host execution: %.1f ms, output %s\n",
                report.hostSeconds * 1e3,
                ok ? "sorted and complete (valsort-style check)"
                   : "INVALID");

    // ---- The same records again, but truly out of core: streamed
    // from a source through spill files into a sink, with resident
    // memory bounded by a budget far below the dataset size.
    auto unsorted = packGensort(gen.generate(0, n));
    std::printf("\nStreamed execution: same records, 4 MiB resident "
                "budget, spill files in $TMPDIR\n");
    io::MemorySource<Record128> source{
        std::span<const Record128>(unsorted)};
    std::vector<Record128> streamed;
    streamed.reserve(unsorted.size());
    io::MemorySink<Record128> sink(streamed);
    sorter::SsdSorter::StreamOptions opts;
    opts.memoryBudgetBytes = 4ULL << 20;
    const auto sreport =
        sorter.sortStream(source, sink, 16, opts);
    const auto &s = sreport.stream;
    std::printf("  %llu chunk(s), %u merge pass(es) at fan-in %u "
                "(batch b = %llu records)\n",
                static_cast<unsigned long long>(s.phase1Chunks),
                s.mergePasses, s.effectiveEll,
                static_cast<unsigned long long>(s.batchRecords));
    std::printf("  spill: %.1f MiB written, %.1f MiB read; stalls "
                "%.1f ms read / %.1f ms write\n",
                static_cast<double>(s.spillBytesWritten) / (1 << 20),
                static_cast<double>(s.spillBytesRead) / (1 << 20),
                s.readStallSeconds * 1e3, s.writeStallSeconds * 1e3);
    const bool sok = streamed == packed;
    std::printf("  streamed output %s the in-memory result\n",
                sok ? "matches" : "DOES NOT MATCH");
    return ok && sok ? 0 : 1;
}
