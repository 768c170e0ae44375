/**
 * @file
 * File-based sort-benchmark workflow (gensort / sort / valsort), the
 * way a downstream user would actually run Bonsai on data at rest:
 *
 *   file_sorter gen <records> <file>           generate 100-byte records
 *   file_sorter sort <in> <out> [--threads N]  Bonsai-sort a record file
 *   file_sorter ssdsort <in> <out>             in-memory two-phase sort
 *   file_sorter extsort <in> <out> [--budget-mb N]
 *                       [--checkpoint-dir D] [--resume]
 *                                              out-of-core streamed sort
 *   file_sorter checkpoint-status <dir>        inspect a job manifest
 *   file_sorter validate <file>                valsort-style check
 *
 * Records on disk use the Jim Gray sort-benchmark layout (10-byte key,
 * 90-byte value).  `sort` packs them to 16-byte AMT records (10-byte
 * key + 6-byte hashed index, Section VI-A), sorts with the DRAM
 * sorter, and rewrites the full 100-byte records in key order.
 * `ssdsort` and `extsort` sort the 100-byte records directly with the
 * two-phase SSD sorter; `extsort` streams them through spill files
 * with resident memory bounded by --budget-mb (default 64), so it
 * sorts files far larger than the budget — its output is byte-for-byte
 * the file `ssdsort` produces, equal keys included, at every budget
 * and thread count.  Both print the process's peak resident set
 * (`peak resident: X MiB`, VmHWM; Linux only) once the output is
 * written.
 *
 * With --checkpoint-dir, extsort runs crash-consistently: spills and
 * a durable job manifest live under the given directory, and a rerun
 * of the identical command after a crash (add --resume to *require*
 * a valid checkpoint) picks up from the last committed chunk or merge
 * pass.  The job directory is cleaned once the output is durable.
 * `checkpoint-status` prints a one-line summary of a job directory's
 * manifest (used by the crash-recovery CI job to stage its kills).
 *
 * Every command reads and writes record files through io::FileSource
 * and io::FileSink, so an input that is not a whole number of records,
 * a failed read or an unwritable output (a full device) ends the
 * command with exit status 1 and one "file_sorter:" line on stderr.
 * `--help` prints the usage line and exits 0; an argument list that
 * names no command prints it to stderr and exits 2.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unordered_map>

#include "common/gensort.hpp"
#include "io/byte_io.hpp"
#include "io/manifest.hpp"
#include "io/stream.hpp"
#include "sorter/sorters.hpp"

namespace
{

using namespace bonsai;

/** Read a whole record file; a torn tail or a failed read throws. */
std::vector<GensortRecord>
readRecords(const char *path)
{
    io::FileSource<GensortRecord> source(io::ByteFile::openRead(path));
    std::vector<GensortRecord> recs(source.totalRecords());
    source.read(recs.data(), recs.size());
    return recs;
}

/** Print the process's peak resident set (VmHWM, Linux only): the
 *  memory a sort really held, next to the budget it was given. */
void
printPeakResident()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return;
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            const double kib = std::strtod(line + 6, nullptr);
            std::printf("peak resident: %.1f MiB\n", kib / 1024);
            break;
        }
    }
    std::fclose(status);
}

/** Write @p recs durably to @p path; a failed write throws. */
void
writeRecords(const char *path, const std::vector<GensortRecord> &recs)
{
    io::FileSink<GensortRecord> sink(io::ByteFile::create(path));
    sink.write(recs.data(), recs.size());
    sink.finish();
}

int
cmdGen(std::uint64_t n, const char *path)
{
    GensortGenerator gen(2020);
    writeRecords(path, gen.generate(0, n));
    std::printf("wrote %llu records (%llu bytes) to %s\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(n * 100), path);
    return 0;
}

int
cmdSort(const char *in_path, const char *out_path, unsigned threads)
{
    auto recs = readRecords(in_path);
    std::printf("read %zu records (%u host thread%s)\n", recs.size(),
                threads, threads == 1 ? "" : "s");

    // Pack to 16-byte AMT records; remember each packed record's
    // position so the 100-byte payloads can be emitted in key order.
    auto packed = packGensort(recs);
    for (std::size_t i = 0; i < packed.size(); ++i)
        packed[i].value = i; // carry the source index instead

    sorter::DramSorter sorter;
    sorter.setThreads(threads);
    const auto report = sorter.sort(packed, 16);
    std::printf("sorted with AMT(%u, %u), %u stages; modeled FPGA "
                "time %.2f ms (+%.2f ms host I/O)\n",
                report.config.p, report.config.ell, report.stages,
                toMs(report.modeledSeconds), toMs(report.ioSeconds));

    std::vector<GensortRecord> sorted;
    sorted.reserve(recs.size());
    for (const Record128 &rec : packed)
        sorted.push_back(recs[rec.value]);
    writeRecords(out_path, sorted);
    std::printf("wrote %s\n", out_path);
    return 0;
}

int
cmdSsdSort(const char *in_path, const char *out_path, unsigned threads)
{
    auto recs = readRecords(in_path);
    std::printf("read %zu records (%u host thread%s)\n", recs.size(),
                threads, threads == 1 ? "" : "s");
    sorter::SsdSorter sorter;
    sorter.setThreads(threads);
    const auto report = sorter.sort(recs, GensortRecord::kBytes);
    std::printf("two-phase sort: %llu chunk(s), %u merge pass(es), "
                "%.1f ms host\n",
                static_cast<unsigned long long>(
                    report.stream.phase1Chunks),
                report.stream.mergePasses, report.hostSeconds * 1e3);
    writeRecords(out_path, recs);
    printPeakResident();
    std::printf("wrote %s\n", out_path);
    return 0;
}

int
cmdExtSort(const char *in_path, const char *out_path, unsigned threads,
           std::uint64_t budget_mb, const std::string &checkpoint_dir,
           bool resume)
{
    io::FileSource<GensortRecord> source(io::ByteFile::openRead(in_path));
    io::FileSink<GensortRecord> sink(io::ByteFile::create(out_path));
    std::printf("streaming %llu records under a %llu MiB budget "
                "(%u host thread%s)\n",
                static_cast<unsigned long long>(source.totalRecords()),
                static_cast<unsigned long long>(budget_mb), threads,
                threads == 1 ? "" : "s");
    if (!checkpoint_dir.empty())
        std::printf("checkpointing to %s%s\n", checkpoint_dir.c_str(),
                    resume ? " (resume required)" : "");

    sorter::SsdSorter sorter;
    sorter.setThreads(threads);
    sorter::SsdSorter::StreamOptions opts;
    opts.memoryBudgetBytes = budget_mb << 20;
    opts.checkpointDir = checkpoint_dir;
    opts.resume = resume;
    const auto report = sorter.sortStream(source, sink,
                                          GensortRecord::kBytes, opts);

    const auto &s = report.stream;
    if (!s.resumeFallback.empty())
        std::printf("resume fallback: %s\n", s.resumeFallback.c_str());
    if (s.resumedChunks + s.resumedPasses > 0)
        std::printf("resume: skipped %llu chunk spill(s) and %llu "
                    "merge pass(es) committed by the previous "
                    "attempt\n",
                    static_cast<unsigned long long>(s.resumedChunks),
                    static_cast<unsigned long long>(s.resumedPasses));
    if (s.manifestCommits > 0)
        std::printf("checkpoint: %llu manifest commit(s)\n",
                    static_cast<unsigned long long>(
                        s.manifestCommits));
    std::printf("phase 1: %llu chunk(s) spilled in %.1f ms\n",
                static_cast<unsigned long long>(s.phase1Chunks),
                s.phase1Seconds * 1e3);
    // Each pass's read and write transfers, in records.
    std::string transfers;
    for (std::size_t i = 0; i < s.passTransferRecords.size(); ++i)
        transfers += (i == 0 ? "" : ", ") +
            std::to_string(s.passTransferRecords[i]) + "/" +
            std::to_string(s.passWriteRecords[i]);
    std::printf("phase 2: %u pass(es) (planned %u) at fan-in %u "
                "(batch b = %llu records, read/write %s records, Eq. 10 "
                "F1 batch %llu, pool %llu KiB) in %.1f ms\n",
                s.mergePasses, s.plannedPasses, s.effectiveEll,
                static_cast<unsigned long long>(s.batchRecords),
                transfers.c_str(),
                static_cast<unsigned long long>(s.modelBatchRecords),
                static_cast<unsigned long long>(s.bufferPoolBytes >> 10),
                s.phase2Seconds * 1e3);
    std::printf("phase 2 parallelism: %u merge lane(s) of %s trees, "
                "final pass in %u slice(s); pool peak %llu KiB\n",
                s.concurrentGroups, s.entryTrees ? "entry" : "record",
                s.finalSlices,
                static_cast<unsigned long long>(
                    s.bufferPoolPeakBytes >> 10));
    std::printf("spill traffic: %.1f MiB written, %.1f MiB read; "
                "stalls %.1f ms read / %.1f ms write\n",
                static_cast<double>(s.spillBytesWritten) / (1 << 20),
                static_cast<double>(s.spillBytesRead) / (1 << 20),
                s.readStallSeconds * 1e3, s.writeStallSeconds * 1e3);
    if (s.ioTransientRetries + s.ioEintrRetries + s.ioShortTransfers +
            s.secondaryErrors >
        0)
        std::printf("io resilience: %llu transient retr%s, %llu EINTR "
                    "retr%s, %llu short transfer(s), %llu secondary "
                    "error(s)\n",
                    static_cast<unsigned long long>(s.ioTransientRetries),
                    s.ioTransientRetries == 1 ? "y" : "ies",
                    static_cast<unsigned long long>(s.ioEintrRetries),
                    s.ioEintrRetries == 1 ? "y" : "ies",
                    static_cast<unsigned long long>(s.ioShortTransfers),
                    static_cast<unsigned long long>(s.secondaryErrors));
    if (s.ioWriteBackKicks > 0)
        std::printf("write-behind: %llu kick(s) in %.1f ms\n",
                    static_cast<unsigned long long>(s.ioWriteBackKicks),
                    s.ioWriteBackSeconds * 1e3);
    printPeakResident();
    if (!checkpoint_dir.empty()) {
        // The output is durable (FileSink::finish synced file and
        // directory); the checkpoint has served its purpose.
        io::removeJobArtifacts(checkpoint_dir);
        std::printf("cleaned job directory %s\n",
                    checkpoint_dir.c_str());
    }
    std::printf("wrote %s\n", out_path);
    return 0;
}

int
cmdCheckpointStatus(const char *dir)
{
    const io::ManifestLoadResult r = io::loadManifest(dir);
    if (r.status != io::ManifestStatus::Ok) {
        std::fprintf(stderr, "file_sorter: %s\n", r.error.c_str());
        return 1;
    }
    const io::JobManifest &m = r.manifest;
    std::printf("chunks=%llu phase1=%d passes=%u runs=%zu store=%s\n",
                static_cast<unsigned long long>(m.chunksDone),
                m.phase1Complete ? 1 : 0, m.passesDone,
                m.runs.size(),
                m.currentStore == 0 ? "front" : "back");
    return 0;
}

int
cmdValidate(const char *path)
{
    // Stream the file through a bounded batch buffer: validation
    // memory stays one batch regardless of file size, matching what
    // extsort promises for the sort itself.
    io::FileSource<GensortRecord> source(io::ByteFile::openRead(path));
    std::vector<GensortRecord> batch(1 << 14);
    ValsortAccumulator acc;
    while (const std::uint64_t got =
               source.read(batch.data(), batch.size()))
        acc.feed(batch.data(), got);
    const ValsortSummary &summary = acc.summary();
    std::printf("records    : %llu\n",
                static_cast<unsigned long long>(summary.records));
    std::printf("checksum   : %016llx\n",
                static_cast<unsigned long long>(summary.checksum));
    std::printf("duplicates : %llu\n",
                static_cast<unsigned long long>(summary.duplicateKeys));
    if (summary.sorted) {
        std::printf("order      : SORTED\n");
        return 0;
    }
    std::printf("order      : NOT SORTED (first violation at record "
                "%llu)\n",
                static_cast<unsigned long long>(summary.unorderedAt));
    return 1;
}

int
run(int argc, char **argv)
{
    // Strip the optional "--threads N" / "--budget-mb N" /
    // "--checkpoint-dir D" / "--resume" flags from anywhere in argv.
    unsigned threads = 1;
    std::uint64_t budget_mb = 64;
    std::string checkpoint_dir;
    bool resume = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (std::strncmp(argv[i], "--threads=", 10) == 0)
            threads = static_cast<unsigned>(
                std::strtoul(argv[i] + 10, nullptr, 10));
        else if (std::strcmp(argv[i], "--budget-mb") == 0 &&
                 i + 1 < argc)
            budget_mb = std::strtoull(argv[++i], nullptr, 10);
        else if (std::strncmp(argv[i], "--budget-mb=", 12) == 0)
            budget_mb = std::strtoull(argv[i] + 12, nullptr, 10);
        else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 &&
                 i + 1 < argc)
            checkpoint_dir = argv[++i];
        else if (std::strncmp(argv[i], "--checkpoint-dir=", 17) == 0)
            checkpoint_dir = argv[i] + 17;
        else if (std::strcmp(argv[i], "--resume") == 0)
            resume = true;
        else
            args.push_back(argv[i]);
    }
    const int nargs = static_cast<int>(args.size());

    if (nargs >= 4 && std::strcmp(args[1], "gen") == 0)
        return cmdGen(std::strtoull(args[2], nullptr, 10), args[3]);
    if (nargs >= 4 && std::strcmp(args[1], "sort") == 0)
        return cmdSort(args[2], args[3], threads);
    if (nargs >= 4 && std::strcmp(args[1], "ssdsort") == 0)
        return cmdSsdSort(args[2], args[3], threads);
    if (nargs >= 4 && std::strcmp(args[1], "extsort") == 0)
        return cmdExtSort(args[2], args[3], threads, budget_mb,
                          checkpoint_dir, resume);
    if (nargs >= 3 &&
        std::strcmp(args[1], "checkpoint-status") == 0)
        return cmdCheckpointStatus(args[2]);
    if (nargs >= 3 && std::strcmp(args[1], "validate") == 0)
        return cmdValidate(args[2]);

    // --help asked for the usage line; anything else that names no
    // command is an error, so a misspelt command cannot succeed.
    const bool help = nargs == 2 && std::strcmp(args[1], "--help") == 0;
    std::fprintf(help ? stdout : stderr,
                 "usage: file_sorter [--threads N] [--budget-mb N] "
                 "[--checkpoint-dir D] [--resume] "
                 "gen <records> <file> | sort <in> <out> | "
                 "ssdsort <in> <out> | extsort <in> <out> | "
                 "checkpoint-status <dir> | validate <file>\n");
    return help ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // I/O failures (a full spill device, an unreadable input, an
    // unwritable output) surface as one exception from the sort call;
    // report it like a tool, not a crash.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "file_sorter: %s\n", e.what());
        return 1;
    }
}
