/** @file
 * Crash-consistency tests for the durable out-of-core sort: a
 * fork-based harness sweeps _exit(137) crash points across phase-1
 * spills, the manifest-commit window (temp write + fdatasync), group
 * merges and resume read-back, then resumes each crashed job
 * in-process and asserts the output is byte-identical to an
 * uninterrupted run — with the resume telemetry proving committed
 * work was actually skipped.  The corruption half of the suite checks
 * the other promise: a torn, tampered or mismatched checkpoint is
 * never silently resumed — ResumeOrFresh restarts loudly, ResumeStrict
 * fails with the validation reason.
 *
 * Fork discipline: the parent only forks between sorts (no live
 * pools), children never return through gtest — they _exit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common/random.hpp"
#include "common/record.hpp"
#include "io/byte_io.hpp"
#include "io/fault_injection.hpp"
#include "io/manifest.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/checkpoint.hpp"
#include "sorter/external.hpp"

namespace bonsai::sorter
{
namespace
{

/** Same geometry as the fault tests: 1000-record chunks, so 24
 *  chunks of a 24'000-record input, and 4-way merges — two non-final
 *  passes (24 -> 6 -> 2) plus the final 2-way splitter pass, so every
 *  journaled phase has crash points. */
StreamEngine<Record>::Options
crashOptions(unsigned threads)
{
    StreamEngine<Record>::Options opt;
    opt.phase1Ell = 4;
    opt.phase2Ell = 4;
    opt.presortRun = 16;
    opt.chunkRecords = 1000;
    opt.batchRecords = 128;
    opt.bufferBudgetBytes = 64 * 128 * sizeof(Record);
    opt.threads = threads;
    return opt;
}

io::RetryPolicy
fastRetries()
{
    io::RetryPolicy r;
    r.backoffBaseMicros = 1;
    return r;
}

/** Job directory scoped to one test, artifacts removed on exit. */
class JobDir
{
  public:
    explicit JobDir(const std::string &name)
        : dir_(::testing::TempDir() + name)
    {
        io::createDirectories(dir_);
    }
    ~JobDir()
    {
        io::removeJobArtifacts(dir_);
        ::rmdir(dir_.c_str());
    }
    const std::string &str() const { return dir_; }

  private:
    std::string dir_;
};

/** The ground truth: the classic (non-durable) streamed sort. */
std::vector<Record>
referenceSort(const std::vector<Record> &data, unsigned threads)
{
    io::MemorySource<Record> source{std::span<const Record>(data)};
    std::vector<Record> out;
    out.reserve(data.size());
    io::MemorySink<Record> sink(out);
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> back;
    StreamEngine<Record>(crashOptions(threads))
        .sortStream(source, sink, front, back);
    return out;
}

/** One durable attempt against @p dir; source and sink recreated per
 *  attempt, exactly as the resume contract requires. */
std::vector<Record>
durableSort(const std::vector<Record> &data, unsigned threads,
            const std::string &dir, ResumePolicy policy,
            StreamStats *stats = nullptr,
            const std::shared_ptr<io::FaultPolicy> &policy_io = nullptr)
{
    io::MemorySource<Record> source{std::span<const Record>(data)};
    std::vector<Record> out;
    out.reserve(data.size());
    io::MemorySink<Record> sink(out);
    DurableOptions durable;
    durable.dir = dir;
    durable.policy = policy;
    durable.faultPolicy = policy_io;
    durable.retryPolicy = fastRetries();
    const StreamStats s =
        StreamEngine<Record>(crashOptions(threads))
            .sortStream({.source = &source, .sink = &sink,
                         .durable = durable});
    if (stats)
        *stats = s;
    return out;
}

/** Child body of one crash-sweep cell: run the durable sort with a
 *  crash point armed and never return through gtest. */
[[noreturn]] void
crashChild(const std::vector<Record> &data, unsigned threads,
           const std::string &dir, const io::FaultPlan &plan)
{
    try {
        durableSort(data, threads, dir, ResumePolicy::ResumeOrFresh,
                    nullptr,
                    std::make_shared<io::FaultInjector>(plan));
        ::_exit(42); // crash point beyond this run's attempts
    } catch (...) {
        ::_exit(99); // a crash seam must kill, not throw
    }
}

/** Total I/O attempts of one uninterrupted durable run, for sizing
 *  the sweep (deterministic in the geometry, not the thread count). */
struct AttemptTotals
{
    std::uint64_t writes = 0;
    std::uint64_t syncs = 0;
    std::uint64_t reads = 0;
};

AttemptTotals
countAttempts(const std::vector<Record> &data, unsigned threads)
{
    JobDir job("crash_counting_job/");
    auto injector =
        std::make_shared<io::FaultInjector>(io::FaultPlan{});
    durableSort(data, threads, job.str(),
                ResumePolicy::ResumeOrFresh, nullptr, injector);
    return {injector->writeAttempts(), injector->syncAttempts(),
            injector->readAttempts()};
}

TEST(StreamEngineCrash, UninterruptedDurableRunMatchesClassicSort)
{
    const auto data = makeRecords(24'000, Distribution::UniformRandom);
    const auto reference = referenceSort(data, 1);
    for (const unsigned threads : {1u, 4u}) {
        JobDir job("crash_clean_job/");
        StreamStats stats;
        const auto out = durableSort(data, threads, job.str(),
                                     ResumePolicy::ResumeOrFresh,
                                     &stats);
        EXPECT_EQ(out, reference);
        // One commit per chunk plus one per non-final pass; the
        // final splitter pass (counted in mergePasses) is never
        // journaled.
        ASSERT_GE(stats.mergePasses, 2u);
        EXPECT_EQ(stats.manifestCommits,
                  24u + (stats.mergePasses - 1));
        EXPECT_EQ(stats.resumedChunks, 0u);
        EXPECT_EQ(stats.resumedPasses, 0u);
        EXPECT_EQ(stats.resumeFallback, "");
        // Artifacts persist past success; the directory owner (the
        // file_sorter tool) deletes them, not the engine.
        EXPECT_TRUE(io::fileExists(io::manifestPath(job.str())));
    }
}

TEST(StreamEngineCrash, ResumingACompletedJobSkipsAllJournaledWork)
{
    const auto data = makeRecords(24'000, Distribution::UniformRandom);
    const auto reference = referenceSort(data, 1);
    JobDir job("crash_completed_job/");
    durableSort(data, 1, job.str(), ResumePolicy::ResumeOrFresh);

    // Second invocation: everything journaled is adopted, only the
    // (never-journaled) final pass is redone.
    StreamStats stats;
    const auto out = durableSort(data, 4, job.str(),
                                 ResumePolicy::ResumeStrict, &stats);
    EXPECT_EQ(out, reference);
    EXPECT_EQ(stats.resumedChunks, 24u);
    EXPECT_GT(stats.resumedPasses, 0u);
    EXPECT_EQ(stats.manifestCommits, 0u);
    EXPECT_EQ(stats.phase1Chunks, 24u);
}

TEST(StreamEngineCrash, CrashSweepResumesByteIdentically)
{
    const auto data = makeRecords(24'000, Distribution::UniformRandom);
    const auto reference = referenceSort(data, 1);
    const AttemptTotals totals = countAttempts(data, 1);
    ASSERT_GT(totals.writes, 0u);
    ASSERT_GT(totals.syncs, 0u);
    ASSERT_GT(totals.reads, 0u);

    // Crash points spread across the whole attempt space: early and
    // late phase-1 spills, the manifest-commit window (every commit
    // is one temp-file write + one fdatasync, so both write- and
    // sync-indexed points land inside it), the group merges near the
    // end of the write sequence, and the checksum read-back.
    struct Point
    {
        io::FaultPlan plan;
        const char *what;
    };
    std::vector<Point> points;
    for (const std::uint64_t frac : {1u, 4u, 8u, 12u, 15u}) {
        io::FaultPlan p;
        p.crashOnWriteAttempt =
            std::max<std::uint64_t>(1, totals.writes * frac / 16);
        points.push_back({p, "write"});
    }
    for (const std::uint64_t frac : {1u, 8u, 15u}) {
        io::FaultPlan p;
        p.crashOnSyncAttempt =
            std::max<std::uint64_t>(1, totals.syncs * frac / 16);
        points.push_back({p, "sync"});
    }
    {
        io::FaultPlan p;
        p.crashOnReadAttempt =
            std::max<std::uint64_t>(1, totals.reads / 2);
        points.push_back({p, "read"});
    }

    for (const unsigned threads : {1u, 4u}) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE(std::string("crash point ") +
                         points[i].what + " #" + std::to_string(i) +
                         ", threads " + std::to_string(threads));
            JobDir job("crash_sweep_job_" + std::to_string(threads) +
                       "_" + std::to_string(i) + "/");

            const pid_t pid = ::fork();
            ASSERT_GE(pid, 0);
            if (pid == 0)
                crashChild(data, threads, job.str(), points[i].plan);
            int status = 0;
            ASSERT_EQ(::waitpid(pid, &status, 0), pid);
            ASSERT_TRUE(WIFEXITED(status));
            const int code = WEXITSTATUS(status);
            ASSERT_TRUE(code == 137 || code == 42)
                << "child exited " << code;

            // Whether the manifest survived decides what the resume
            // may claim, not whether it must succeed.
            const bool committed =
                io::loadManifest(job.str()).status ==
                io::ManifestStatus::Ok;

            StreamStats stats;
            const auto out =
                durableSort(data, threads, job.str(),
                            ResumePolicy::ResumeOrFresh, &stats);
            EXPECT_EQ(out, reference);
            if (committed) {
                // Any committed manifest records real work (the
                // first commit happens after the first chunk).
                EXPECT_GT(stats.resumedChunks + stats.resumedPasses,
                          0u);
                EXPECT_EQ(stats.resumeFallback, "");
            }
        }
    }
}

TEST(StreamEngineCrash, CrashInAWriteBehindKickResumesByteIdentically)
{
    // The sweep's 24,000 records never fill a write-behind kick;
    // 400,000 records in 20 chunks of 20,000 pass 6.4 MB through each
    // spill file.  A crash inside the first kick (phase 1) and inside
    // the last (the second non-final pass) resumes to the bytes of
    // the uninterrupted run.
    if (!io::ByteFile::kWriteBehind)
        GTEST_SKIP() << "no write-behind kick on this platform";
    StreamEngine<Record>::Options opt = crashOptions(1);
    opt.chunkRecords = 20'000;
    const auto data = makeRecords(400'000, Distribution::UniformRandom);
    const auto sortOnce = [&](const std::string &dir,
                              std::shared_ptr<io::FaultPolicy> faults,
                              StreamStats *stats) {
        io::MemorySource<Record> source{std::span<const Record>(data)};
        std::vector<Record> out;
        io::MemorySink<Record> sink(out);
        DurableOptions durable;
        durable.dir = dir;
        durable.policy = ResumePolicy::ResumeOrFresh;
        durable.faultPolicy = std::move(faults);
        durable.retryPolicy = fastRetries();
        const StreamStats s = StreamEngine<Record>(opt).sortStream(
            {.source = &source, .sink = &sink, .durable = durable});
        if (stats)
            *stats = s;
        return out;
    };

    JobDir counting("crash_kick_counting_job/");
    auto counter = std::make_shared<io::FaultInjector>(io::FaultPlan{});
    const auto reference = sortOnce(counting.str(), counter, nullptr);
    const std::uint64_t kicks = counter->writeBackAttempts();
    ASSERT_GE(kicks, 2u);

    for (const std::uint64_t at : {std::uint64_t{1}, kicks}) {
        SCOPED_TRACE("crash in kick " + std::to_string(at) + " of " +
                     std::to_string(kicks));
        JobDir job("crash_kick_job_" + std::to_string(at) + "/");
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            io::FaultPlan plan;
            plan.crashOnWriteBackAttempt = at;
            try {
                sortOnce(job.str(), std::make_shared<io::FaultInjector>(plan),
                         nullptr);
                ::_exit(42); // the crash point was never reached
            } catch (...) {
                ::_exit(99); // a crash seam must kill, not throw
            }
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 137);

        StreamStats stats;
        EXPECT_EQ(sortOnce(job.str(), nullptr, &stats), reference);
        if (at == kicks) { // phase 1 was journaled before that kick
            EXPECT_EQ(stats.resumedChunks, 20u);
        }
    }
}

TEST(StreamEngineCrash, CorruptManifestFallsBackFreshButLoudly)
{
    const auto data = makeRecords(24'000, Distribution::UniformRandom);
    const auto reference = referenceSort(data, 1);
    JobDir job("crash_corrupt_job/");
    durableSort(data, 1, job.str(), ResumePolicy::ResumeOrFresh);

    // Flip a body byte: CRC catches it, resume restarts fresh and
    // says why.
    {
        io::ByteFile f = io::ByteFile::openReadWrite(
            io::manifestPath(job.str()));
        unsigned char b = 0;
        f.readAt(30, &b, 1, "test read");
        b ^= 0x10u;
        f.writeAt(30, &b, 1, "test corrupt");
    }
    StreamStats stats;
    const auto out = durableSort(data, 1, job.str(),
                                 ResumePolicy::ResumeOrFresh, &stats);
    EXPECT_EQ(out, reference);
    EXPECT_EQ(stats.resumedChunks + stats.resumedPasses, 0u);
    EXPECT_NE(stats.resumeFallback.find("checksum"),
              std::string::npos)
        << stats.resumeFallback;
}

TEST(StreamEngineCrash, CorruptManifestFailsAStrictResume)
{
    const auto data = makeRecords(24'000, Distribution::UniformRandom);
    JobDir job("crash_strict_job/");
    durableSort(data, 1, job.str(), ResumePolicy::ResumeOrFresh);
    {
        io::ByteFile f = io::ByteFile::openReadWrite(
            io::manifestPath(job.str()));
        unsigned char b = 0;
        f.readAt(30, &b, 1, "test read");
        b ^= 0x10u;
        f.writeAt(30, &b, 1, "test corrupt");
    }

    std::string msg;
    try {
        durableSort(data, 1, job.str(), ResumePolicy::ResumeStrict);
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("cannot resume"), std::string::npos) << msg;
    EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;
}

TEST(StreamEngineCrash, ParameterDriftRefusesTheCheckpoint)
{
    const auto data = makeRecords(24'000, Distribution::UniformRandom);
    JobDir job("crash_params_job/");
    durableSort(data, 1, job.str(), ResumePolicy::ResumeOrFresh);

    // Same job directory, different chunk geometry: the echo check
    // must name the drifted parameter before any run data is read.
    io::MemorySource<Record> source{std::span<const Record>(data)};
    std::vector<Record> out;
    io::MemorySink<Record> sink(out);
    auto opt = crashOptions(1);
    opt.chunkRecords = 2000;
    DurableOptions durable;
    durable.dir = job.str();
    durable.policy = ResumePolicy::ResumeStrict;
    std::string msg;
    try {
        StreamEngine<Record>(opt).sortStream(
            {.source = &source, .sink = &sink, .durable = durable});
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("parameter mismatch"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("chunk records"), std::string::npos) << msg;
}

TEST(StreamEngineCrash, TamperedRunDataIsCaughtByReadBack)
{
    const auto data = makeRecords(24'000, Distribution::UniformRandom);
    const auto reference = referenceSort(data, 1);
    JobDir job("crash_tamper_job/");
    durableSort(data, 1, job.str(), ResumePolicy::ResumeOrFresh);

    // Flip one byte inside the first recorded run of the live store:
    // the manifest itself is intact, only the data checksum can tell.
    const io::ManifestLoadResult m = io::loadManifest(job.str());
    ASSERT_EQ(m.status, io::ManifestStatus::Ok) << m.error;
    ASSERT_FALSE(m.manifest.runs.empty());
    const std::string store_path =
        job.str() + "/" +
        (m.manifest.currentStore == 0 ? io::kFrontStoreFileName
                                      : io::kBackStoreFileName);
    {
        io::ByteFile f = io::ByteFile::openReadWrite(store_path);
        const std::uint64_t at =
            m.manifest.runs[0].offset * sizeof(Record) + 5;
        unsigned char b = 0;
        f.readAt(at, &b, 1, "test read");
        b ^= 0x01u;
        f.writeAt(at, &b, 1, "test tamper");
    }

    StreamStats stats;
    const auto out = durableSort(data, 1, job.str(),
                                 ResumePolicy::ResumeOrFresh, &stats);
    EXPECT_EQ(out, reference);
    EXPECT_EQ(stats.resumedChunks + stats.resumedPasses, 0u);
    EXPECT_NE(stats.resumeFallback.find(
                  "checksum mismatch for recorded run"),
              std::string::npos)
        << stats.resumeFallback;
}

TEST(StreamEngineCrash, EmptySourceCreatesNoJobDirectory)
{
    // An empty durable sort has nothing to journal: it returns before
    // the job directory or its manifest is created.
    JobDir parent("crash_empty_parent/");
    const std::string dir = parent.str() + "/job";
    StreamStats stats;
    const auto out = durableSort({}, 1, dir,
                                 ResumePolicy::ResumeOrFresh, &stats);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.recordsIn, 0u);
    EXPECT_EQ(stats.manifestCommits, 0u);
    EXPECT_FALSE(io::fileExists(dir + "/" + io::kManifestFileName));
    EXPECT_FALSE(io::fileExists(dir));
}

TEST(StreamEngineCrash, FreshStartDeletesOrphanSpills)
{
    // Orphans from a newer aborted attempt — spill files and a torn
    // temp manifest but no committed manifest — must not survive
    // into a fresh job.
    JobDir job("crash_orphan_job/");
    for (const char *name :
         {io::kManifestTempFileName, io::kFrontStoreFileName,
          io::kBackStoreFileName}) {
        io::ByteFile f = io::ByteFile::create(job.str() + "/" + name);
        const char junk[32] = "orphaned by an aborted attempt";
        f.writeAt(0, junk, sizeof(junk), "test orphan");
    }

    typename Checkpointer<Record>::Config cfg;
    cfg.durable.dir = job.str();
    cfg.durable.policy = ResumePolicy::ResumeOrFresh;
    cfg.params.recordBytes = sizeof(Record);
    cfg.params.recordsIn = 1000;
    cfg.params.chunkRecords = 100;
    Checkpointer<Record> ckpt(cfg);

    EXPECT_FALSE(ckpt.resumed());
    EXPECT_EQ(ckpt.fallbackReason(), ""); // NotFound is not a fallback
    EXPECT_FALSE(io::fileExists(job.str() + "/" +
                                io::kManifestTempFileName));
    // The stores were recreated empty, not adopted.
    EXPECT_EQ(ckpt.front().sizeBytes(), 0u);
    EXPECT_EQ(ckpt.back().sizeBytes(), 0u);
}

} // namespace
} // namespace bonsai::sorter
