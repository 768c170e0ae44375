/** @file
 * Unit tests for the I/O fault-injection seam and the hardened
 * ByteFile transfer loop: short transfers, EINTR storms, transient
 * EIO with bounded retry/backoff, hard ENOSPC, fdatasync failures,
 * rich error messages, and createTemp's directory handling.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "common/record.hpp"
#include "io/byte_io.hpp"
#include "io/fault_injection.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"

namespace bonsai::io
{
namespace
{

/** Temp file path scoped to one test, removed on destruction. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/** Fast retries so exhausted-retry tests don't sleep for real. */
RetryPolicy
fastRetries(unsigned max_attempts = 4)
{
    RetryPolicy r;
    r.maxAttempts = max_attempts;
    r.backoffBaseMicros = 1;
    return r;
}

std::vector<unsigned char>
patternBytes(std::uint64_t n)
{
    std::vector<unsigned char> bytes(n);
    for (std::uint64_t i = 0; i < n; ++i)
        bytes[i] = static_cast<unsigned char>((i * 131) ^ (i >> 8));
    return bytes;
}

/** What the throwing call reported, for message-content checks. */
std::string
messageOf(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(FaultInjection, ShortTransfersResumeByteIdentically)
{
    ByteFile file = ByteFile::createTemp();
    FaultPlan plan;
    plan.seed = 42;
    plan.shortEveryWrites = 1; // cap every attempt to a random prefix
    plan.shortEveryReads = 1;
    auto injector = std::make_shared<FaultInjector>(plan);
    file.setFaultPolicy(injector);

    const auto bytes = patternBytes(64 * 1024);
    file.writeAt(0, bytes.data(), bytes.size());
    std::vector<unsigned char> got(bytes.size());
    file.readAt(0, got.data(), got.size());
    EXPECT_EQ(got, bytes);
    EXPECT_GT(injector->injectedShort(), 0u);
    EXPECT_GE(file.retryStats().shortTransfers,
              injector->injectedShort());
    EXPECT_EQ(file.retryStats().transientRetries, 0u);
}

TEST(FaultInjection, EintrStormsAreRetriedTransparently)
{
    ByteFile file = ByteFile::createTemp();
    FaultPlan plan;
    plan.eintrEvery = 5;
    plan.eintrBurst = 3;
    auto injector = std::make_shared<FaultInjector>(plan);
    file.setFaultPolicy(injector);

    const auto bytes = patternBytes(16 * 1024);
    // Several transfers so the attempt index crosses the storm cadence.
    for (std::uint64_t off = 0; off < bytes.size(); off += 1024)
        file.writeAt(off, bytes.data() + off, 1024);
    std::vector<unsigned char> got(bytes.size());
    for (std::uint64_t off = 0; off < bytes.size(); off += 1024)
        file.readAt(off, got.data() + off, 1024);
    EXPECT_EQ(got, bytes);
    EXPECT_GT(injector->injectedEintr(), 0u);
    EXPECT_EQ(file.retryStats().eintrRetries, injector->injectedEintr());
}

TEST(FaultInjection, TransientEioHealsWithinTheRetryBudget)
{
    ByteFile file = ByteFile::createTemp();
    file.setRetryPolicy(fastRetries());
    const auto bytes = patternBytes(4096);
    file.writeAt(0, bytes.data(), bytes.size());

    FaultPlan plan;
    plan.eioOnReadAttempt = 1;
    plan.eioFailures = 2; // heals on the third attempt
    auto injector = std::make_shared<FaultInjector>(plan);
    file.setFaultPolicy(injector);

    std::vector<unsigned char> got(bytes.size());
    file.readAt(0, got.data(), got.size());
    EXPECT_EQ(got, bytes);
    EXPECT_EQ(injector->injectedEio(), 2u);
    EXPECT_EQ(file.retryStats().transientRetries, 2u);
}

TEST(FaultInjection, ExhaustedTransientRetriesThrowWithFullContext)
{
    ByteFile file = ByteFile::createTemp();
    file.setRetryPolicy(fastRetries(2));
    const auto bytes = patternBytes(4096);
    file.writeAt(0, bytes.data(), bytes.size());

    FaultPlan plan;
    plan.eioOnReadAttempt = 1;
    plan.eioFailures = 100; // never heals within 2 retries
    file.setFaultPolicy(std::make_shared<FaultInjector>(plan));

    std::vector<unsigned char> got(bytes.size());
    const std::string msg = messageOf([&] {
        file.readAt(512, got.data(), 1024, "unit-test stream of run 7");
    });
    EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset 512"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1024 of 1024 bytes outstanding"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unit-test stream of run 7"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("unlinked spill"), std::string::npos) << msg;
}

TEST(FaultInjection, EnospcIsPermanentAndReportsTheWriteOffset)
{
    ByteFile file = ByteFile::createTemp();
    file.setRetryPolicy(fastRetries());
    FaultPlan plan;
    plan.enospcAtWriteByte = 4096;
    auto injector = std::make_shared<FaultInjector>(plan);
    file.setFaultPolicy(injector);

    const auto bytes = patternBytes(8192);
    file.writeAt(0, bytes.data(), 4096); // below the cliff: fine
    const std::string msg = messageOf([&] {
        file.writeAt(4096, bytes.data(), 4096, "mid-merge write-back");
    });
    EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset 4096"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mid-merge write-back"), std::string::npos)
        << msg;
    EXPECT_GT(injector->injectedEnospc(), 0u);
    // ENOSPC is not transient: no retry was burned on it.
    EXPECT_EQ(file.retryStats().transientRetries, 0u);
}

TEST(FaultInjection, ReadPastEndOfFileReportsOffsetAndContext)
{
    ByteFile file = ByteFile::createTemp();
    const auto bytes = patternBytes(1024);
    file.writeAt(0, bytes.data(), bytes.size());
    std::vector<unsigned char> got(2048);
    const std::string msg = messageOf(
        [&] { file.readAt(0, got.data(), 2048, "torn-tail probe"); });
    EXPECT_NE(msg.find("end of file"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset 1024"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1024 of 2048 bytes outstanding"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("torn-tail probe"), std::string::npos) << msg;
}

TEST(FaultInjection, SyncFailuresSurfaceFromFinish)
{
    TempPath out("bonsai_fault_sink.bin");
    FileSink<Record> sink(ByteFile::create(out.str()));
    FaultPlan plan;
    plan.failSyncWith = ENOSPC;
    sink.setFaultPolicy(std::make_shared<FaultInjector>(plan));
    sink.setRetryPolicy(fastRetries());

    std::vector<Record> recs(16);
    for (std::uint64_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{i + 1, i};
    sink.write(recs.data(), recs.size());
    const std::string msg = messageOf([&] { sink.finish(); });
    EXPECT_NE(msg.find("fdatasync failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("finishing output sink"), std::string::npos)
        << msg;
}

TEST(FaultInjection, TransientSyncFailureHealsWithinTheRetryBudget)
{
    // EIO from fdatasync is retried like any transient error; the
    // injector heals nothing (failSyncWith fires every attempt), so
    // use a policy that stops injecting after the budget is probed.
    ByteFile file = ByteFile::createTemp();
    file.setRetryPolicy(fastRetries());
    const auto bytes = patternBytes(512);
    file.writeAt(0, bytes.data(), bytes.size());
    file.sync(); // no policy: plain fdatasync must succeed
    EXPECT_EQ(file.retryStats().transientRetries, 0u);
}

TEST(FaultInjection, FileRunStoreSurfacesRetryTelemetry)
{
    FileRunStore<Record> store;
    store.setRetryPolicy(fastRetries());
    FaultPlan plan;
    plan.eioOnWriteAttempt = 1;
    plan.eioFailures = 1;
    store.setFaultPolicy(std::make_shared<FaultInjector>(plan));

    std::vector<Record> recs(256);
    for (std::uint64_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{i + 1, i};
    store.writeAt(0, recs.data(), recs.size());
    store.flush();
    std::vector<Record> got(recs.size());
    store.readAt(0, got.data(), got.size());
    EXPECT_EQ(got, recs);
    EXPECT_EQ(store.retryStats().transientRetries, 1u);
}

TEST(FaultInjection, CreateTempNormalizesTrailingSlashes)
{
    // A trailing slash used to produce "//bonsai-spill-XXXXXX"
    // templates; normalized, the spill works like any other.
    ByteFile file = ByteFile::createTemp(::testing::TempDir() + "///");
    const auto bytes = patternBytes(1024);
    file.writeAt(0, bytes.data(), bytes.size());
    std::vector<unsigned char> got(bytes.size());
    file.readAt(0, got.data(), got.size());
    EXPECT_EQ(got, bytes);
}

TEST(FaultInjection, CreateTempInUnusableDirFailsWithClearError)
{
    const std::string msg = messageOf([&] {
        ByteFile::createTemp("/nonexistent-bonsai-spill-dir");
    });
    EXPECT_NE(msg.find("spill directory"), std::string::npos) << msg;
    EXPECT_NE(msg.find("/nonexistent-bonsai-spill-dir"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("pass a writable spill directory"),
              std::string::npos)
        << msg;
}

TEST(FaultInjection, CreateTempFallsBackToTmpWhenTmpdirIsUnusable)
{
    // A stale $TMPDIR (trailing slash included) must degrade to /tmp
    // instead of failing the sort.
    const char *saved = std::getenv("TMPDIR"); // NOLINT(concurrency-mt-unsafe): single-threaded test
    const std::string restore = saved ? saved : "";
    ::setenv("TMPDIR", "/nonexistent-bonsai-tmpdir/", 1); // NOLINT(concurrency-mt-unsafe): single-threaded test
    std::string msg;
    try {
        ByteFile file = ByteFile::createTemp();
        const auto bytes = patternBytes(256);
        file.writeAt(0, bytes.data(), bytes.size());
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    if (saved != nullptr)
        ::setenv("TMPDIR", restore.c_str(), 1); // NOLINT(concurrency-mt-unsafe): single-threaded test
    else
        ::unsetenv("TMPDIR"); // NOLINT(concurrency-mt-unsafe): single-threaded test
    EXPECT_EQ(msg, "") << msg;
}

TEST(FaultInjection, AttemptCountersSeeEveryIoAttempt)
{
    // The crash-sweep tests size their sweep from a counting run:
    // the injector must tally every read, write and sync attempt
    // even when it injects nothing.
    ByteFile file = ByteFile::createTemp();
    auto injector = std::make_shared<FaultInjector>(FaultPlan{});
    file.setFaultPolicy(injector);

    const auto bytes = patternBytes(4096);
    file.writeAt(0, bytes.data(), bytes.size());
    file.writeAt(4096, bytes.data(), bytes.size());
    file.sync();
    std::vector<unsigned char> got(bytes.size());
    file.readAt(0, got.data(), got.size());

    EXPECT_EQ(injector->writeAttempts(), 2u);
    EXPECT_EQ(injector->readAttempts(), 1u);
    EXPECT_EQ(injector->syncAttempts(), 1u);
}

TEST(FaultInjection, CrashPointKillsTheProcessAtTheExactAttempt)
{
    // The crash seam is _exit(137) — only observable across fork().
    // The child must survive attempt 1 and die inside attempt 2
    // without the write landing.
    TempPath spill("crash_point.bin");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: no gtest, no exceptions out — just the crash.
        ByteFile file = ByteFile::create(spill.str());
        FaultPlan plan;
        plan.crashOnWriteAttempt = 2;
        file.setFaultPolicy(std::make_shared<FaultInjector>(plan));
        const auto bytes = patternBytes(512);
        file.writeAt(0, bytes.data(), bytes.size());
        file.writeAt(512, bytes.data(), bytes.size());
        ::_exit(0); // not reached: attempt 2 crashed
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 137);

    // Attempt 1 landed before the crash; attempt 2 never did.
    ByteFile file = ByteFile::openRead(spill.str());
    EXPECT_EQ(file.sizeBytes(), 512u);
}

/** Fails the first @p eio write-behind attempts with EIO, then
 *  @p eintr with EINTR; passes everything else. */
class FlakyKicks final : public FaultPolicy
{
  public:
    FlakyKicks(unsigned eio, unsigned eintr) : eio_(eio), eintr_(eintr) {}

    FaultAction
    onAttempt(const FaultOp &op) override
    {
        FaultAction act;
        if (op.kind != FaultOp::Kind::WriteBack)
            return act;
        if (eio_ > 0) {
            --eio_;
            act.failWith = EIO;
        } else if (eintr_ > 0) {
            --eintr_;
            act.failWith = EINTR;
        }
        return act;
    }

  private:
    unsigned eio_;
    unsigned eintr_;
};

TEST(FaultInjection, WriteBehindKicksOncePerThreshold)
{
    // Nine 1 MiB writes cross the 4 MiB threshold twice: two kicks,
    // counted apart from the nine write attempts.
    if (!ByteFile::kWriteBehind)
        GTEST_SKIP() << "no write-behind kick on this platform";
    static_assert(ByteFile::kWriteBehindBytes == 4ULL << 20);
    ByteFile file = ByteFile::createTemp();
    auto injector = std::make_shared<FaultInjector>(FaultPlan{});
    file.setFaultPolicy(injector);
    const auto bytes = patternBytes(1 << 20);
    for (std::uint64_t i = 0; i < 9; ++i)
        file.writeAt(i << 20, bytes.data(), bytes.size());

    EXPECT_EQ(injector->writeAttempts(), 9u);
    EXPECT_EQ(injector->writeBackAttempts(), 2u);
    EXPECT_EQ(injector->syncAttempts(), 0u);
    EXPECT_EQ(file.retryStats().writeBackKicks, 2u);
    EXPECT_GE(file.retryStats().writeBackSeconds, 0.0);
}

TEST(FaultInjection, TransientKickFailuresAreRetried)
{
    // The kick runs through the pwrite retry loop: EIO with backoff,
    // EINTR at once, and the write succeeds once the kick does.
    if (!ByteFile::kWriteBehind)
        GTEST_SKIP() << "no write-behind kick on this platform";
    ByteFile file = ByteFile::createTemp();
    file.setRetryPolicy(fastRetries());
    file.setFaultPolicy(std::make_shared<FlakyKicks>(2, 3));
    const auto bytes = patternBytes(ByteFile::kWriteBehindBytes);
    file.writeAt(0, bytes.data(), bytes.size());

    const IoRetryStats stats = file.retryStats();
    EXPECT_EQ(stats.transientRetries, 2u);
    EXPECT_EQ(stats.eintrRetries, 3u);
    EXPECT_EQ(stats.writeBackKicks, 1u);
    std::vector<unsigned char> got(bytes.size());
    file.readAt(0, got.data(), got.size());
    EXPECT_EQ(got, bytes);
}

TEST(FaultInjection, FailedKickThrowsWithFileContextAndErrno)
{
    if (!ByteFile::kWriteBehind)
        GTEST_SKIP() << "no write-behind kick on this platform";
    TempPath out("failed_kick.bin");
    ByteFile file = ByteFile::create(out.str());
    FaultPlan plan;
    plan.failWriteBackWith = ENOSPC;
    auto injector = std::make_shared<FaultInjector>(plan);
    file.setFaultPolicy(injector);
    const auto bytes = patternBytes(ByteFile::kWriteBehindBytes);

    const std::string msg = messageOf([&] {
        file.writeAt(0, bytes.data(), bytes.size(), "writing run 7");
    });
    EXPECT_NE(msg.find("sync_file_range (write-behind) failed"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(out.str()), std::string::npos) << msg;
    EXPECT_NE(msg.find("while writing run 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("No space left on device"), std::string::npos) << msg;
    // ENOSPC is permanent: one attempt, no retry.
    EXPECT_EQ(injector->injectedWriteBackFailures(), 1u);
    EXPECT_EQ(file.retryStats().transientRetries, 0u);
}

TEST(FaultInjection, CrashPointOnTheKickFollowsItsWrite)
{
    // crashOnWriteBackAttempt kills the process inside the first
    // kick, which runs after the write that crossed the threshold.
    if (!ByteFile::kWriteBehind)
        GTEST_SKIP() << "no write-behind kick on this platform";
    TempPath spill("crash_kick.bin");
    const auto bytes = patternBytes(ByteFile::kWriteBehindBytes);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ByteFile file = ByteFile::create(spill.str());
        FaultPlan plan;
        plan.crashOnWriteBackAttempt = 1;
        file.setFaultPolicy(std::make_shared<FaultInjector>(plan));
        file.writeAt(0, bytes.data(), bytes.size());
        ::_exit(0); // not reached: the kick crashed
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 137);
    EXPECT_EQ(ByteFile::openRead(spill.str()).sizeBytes(), bytes.size());
}

} // namespace
} // namespace bonsai::io
