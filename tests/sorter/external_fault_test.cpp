/** @file
 * Fault-injection tests for the out-of-core streaming sort: a fault
 * in any lane — phase-1 spill, phase-2 group merge, final splitter
 * pass, or the output sink — must surface as exactly one clean
 * std::runtime_error from sortStream, with every pool buffer returned
 * (no deadlock, no leak), and a transient fault that heals
 * within the retry budget must not change a single output byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/contract.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "io/byte_io.hpp"
#include "io/fault_injection.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/external.hpp"

namespace bonsai::sorter
{
namespace
{

/** Same shape as the main external tests: 1000-record chunks, 4-way
 *  merges, lanes for up to 4 threads within the budget. */
StreamEngine<Record>::Options
faultOptions(unsigned threads)
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

/** Retries resolve in microseconds so failure tests don't sleep. */
io::RetryPolicy
fastRetries()
{
    io::RetryPolicy r;
    r.backoffBaseMicros = 1;
    return r;
}

/** Streamed sort against caller-provided (possibly faulty) stores. */
std::vector<Record>
streamSort(const StreamEngine<Record> &engine,
           const std::vector<Record> &data,
           io::FileRunStore<Record> &front,
           io::FileRunStore<Record> &back, StreamStats *stats = nullptr)
{
    io::MemorySource<Record> source{std::span<const Record>(data)};
    std::vector<Record> out;
    out.reserve(data.size());
    io::MemorySink<Record> sink(out);
    const StreamStats s = engine.sortStream(source, sink, front, back);
    if (stats)
        *stats = s;
    return out;
}

/** Run the sort expecting a runtime_error; assert the unwind left the
 *  buffer pool whole.  Returns the error text for content checks. */
std::string
expectCleanFailure(const StreamEngine<Record> &engine,
                   const std::vector<Record> &data,
                   io::FileRunStore<Record> &front,
                   io::FileRunStore<Record> &back)
{
    std::string msg;
    try {
        streamSort(engine, data, front, back);
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    EXPECT_FALSE(msg.empty())
        << "injected fault did not surface from sortStream";
    EXPECT_EQ(engine.lastPoolOutstanding(), 0u)
        << "buffer pool leaked buffers during the unwind";
    return msg;
}

TEST(StreamEngineFaults, HardSpillWriteErrorUnwindsCleanly)
{
    // Phase 1: the spill worker's writeAt hits unhealing EIO while
    // the main thread is still filling the other chunk buffer.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnWriteAttempt = 2;
        plan.eioFailures = 1'000'000; // never heals
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("phase-1 spill"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, SpillEnospcAtAByteOffsetUnwindsCleanly)
{
    // A full spill device partway through phase 1: ENOSPC is not
    // retried, the first failing lane wins, nothing leaks.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.enospcAtWriteByte = 100'000; // of ~480 KiB spilled
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, HardMergeReadErrorUnwindsCleanly)
{
    // Phase 2: a run cursor's batch read dies mid-group-merge.
    // Attempt 40 lands past phase 1 (writes only) and past the cursor
    // constructors' initial fills, squarely in a mid-run refill.
    const auto data = makeRecords(30'000, Distribution::FewDistinct);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 40;
        plan.eioFailures = 1'000'000;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("streaming run"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, CursorConstructionErrorDoesNotLeakBuffers)
{
    // The very first read of phase 2 fails: the cursor is mid-
    // construction holding a freshly leased buffer, the exact spot
    // where a throwing constructor used to leak pool accounting.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 1;
        plan.eioFailures = 1'000'000;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, FinalSplitterPassFaultUnwindsCleanly)
{
    // Exactly ell runs: phase 2 is a single final pass, so the first
    // failing read happens under the splitter-partitioned drain (the
    // probe reads at threads >= 2, the slice cursors at threads = 1).
    const auto data = makeRecords(4'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 1;
        plan.eioFailures = 1'000'000;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pread failed"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, MergePassWriteBackErrorUnwindsCleanly)
{
    // The destination store of a non-final merge pass rejects the
    // write-back: the merge group's batch write throws on the
    // merging thread.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnWriteAttempt = 3;
        plan.eioFailures = 1'000'000;
        back.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        back.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        const std::string msg =
            expectCleanFailure(engine, data, front, back);
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("merge group"), std::string::npos) << msg;
    }
}

TEST(StreamEngineFaults, SinkEnospcDuringTheFinalPassUnwindsCleanly)
{
    // The *output* device fills up mid-final-pass: positioned segment
    // writes from the slice workers hit the ENOSPC cliff.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        io::MemorySource<Record> source{std::span<const Record>(data)};
        io::FileSink<Record> sink(
            io::ByteFile::create(::testing::TempDir() +
                                 "bonsai_enospc_sink_" +
                                 std::to_string(threads) + ".bin"));
        io::FaultPlan plan;
        plan.enospcAtWriteByte = 200'000; // of ~480 KiB of output
        sink.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        sink.setRetryPolicy(fastRetries());
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;

        const StreamEngine<Record> engine(faultOptions(threads));
        std::string msg;
        try {
            engine.sortStream(source, sink, front, back);
        } catch (const std::runtime_error &e) {
            msg = e.what();
        }
        EXPECT_FALSE(msg.empty())
            << "sink ENOSPC did not surface from sortStream";
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos) << msg;
        EXPECT_EQ(engine.lastPoolOutstanding(), 0u)
            << "buffer pool leaked buffers during the unwind";
    }
}

/** Declares every record of a buffer but ends after the first
 *  @p cut of them: a truncated input the engine only discovers
 *  mid-read. */
class TruncatedSource : public io::RecordSource<Record>
{
  public:
    TruncatedSource(const std::vector<Record> &data, std::uint64_t cut)
        : data_(&data), cut_(cut)
    {
    }

    std::uint64_t totalRecords() const override { return data_->size(); }

    std::uint64_t
    read(Record *dst, std::uint64_t max) override
    {
        const std::uint64_t n = std::min<std::uint64_t>(max, cut_ - pos_);
        std::copy_n(data_->data() + pos_, n, dst);
        pos_ += n;
        return n;
    }

  private:
    const std::vector<Record> *data_;
    std::uint64_t cut_;
    std::uint64_t pos_ = 0;
};

TEST(StreamEngineFaults, SourceEndingMidPhaseOneUnwindsCleanly)
{
    // The source ends at record 2500 of a declared 5000 (chunks of
    // 1000), so the failing read runs while earlier chunks are still
    // being sorted and spilled: exactly one contract violation, no
    // suppressed errors, every pool buffer back.
    const auto data = makeRecords(5'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        TruncatedSource source(data, 2'500);
        std::vector<Record> out;
        io::MemorySink<Record> sink(out);
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        const StreamEngine<Record> engine(faultOptions(threads));
        unsigned thrown = 0;
        std::string msg;
        try {
            engine.sortStream(source, sink, front, back);
        } catch (const ContractViolation &e) {
            ++thrown;
            msg = e.what();
        }
        EXPECT_EQ(thrown, 1u) << "threads=" << threads;
        EXPECT_NE(msg.find("ended at record 2500 but declared 5000"),
                  std::string::npos)
            << msg;
        EXPECT_EQ(engine.lastPoolOutstanding(), 0u);
        EXPECT_EQ(engine.lastSecondaryErrors(), 0u);
    }

    // Durable: the chunks journaled before the source ran dry are
    // adopted by a resume over the full input, whose output matches
    // an uninterrupted run byte for byte.
    auto expected = data;
    StreamEngine<Record>(faultOptions(1)).sortInPlace(expected);
    for (const unsigned threads : {1u, 4u}) {
        const std::string dir = ::testing::TempDir() +
            "bonsai_truncated_source_job_" + std::to_string(threads);
        io::createDirectories(dir);
        const StreamEngine<Record> engine(faultOptions(threads));
        DurableOptions durable;
        durable.dir = dir;
        {
            TruncatedSource source(data, 2'500);
            std::vector<Record> out;
            io::MemorySink<Record> sink(out);
            EXPECT_THROW(engine.sortStream({.source = &source,
                                            .sink = &sink,
                                            .durable = durable}),
                         ContractViolation);
            EXPECT_EQ(engine.lastPoolOutstanding(), 0u);
        }
        io::MemorySource<Record> source{std::span<const Record>(data)};
        std::vector<Record> out;
        io::MemorySink<Record> sink(out);
        durable.policy = ResumePolicy::ResumeStrict;
        const StreamStats stats = engine.sortStream(
            {.source = &source, .sink = &sink, .durable = durable});
        EXPECT_EQ(out, expected) << "threads=" << threads;
        EXPECT_GE(stats.resumedChunks, 1u);
        io::removeJobArtifacts(dir);
        ::rmdir(dir.c_str());
    }
}

TEST(StreamEngineFaults, HealedTransientFaultIsByteIdentical)
{
    // Transient EIO within the retry budget: the sort must succeed
    // with the exact bytes of a fault-free run, and the retries must
    // show up in the engine telemetry.
    const auto data = makeRecords(30'000, Distribution::FewDistinct);
    auto expected = data;
    StreamEngine<Record>(faultOptions(1)).sortInPlace(expected);

    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.eioOnReadAttempt = 5;
        plan.eioFailures = 2; // heals within maxAttempts = 4
        plan.eioOnWriteAttempt = 7;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        front.setRetryPolicy(fastRetries());

        const StreamEngine<Record> engine(faultOptions(threads));
        StreamStats stats;
        const auto out = streamSort(engine, data, front, back, &stats);
        ASSERT_EQ(out, expected)
            << "healed transient fault changed the output bytes";
        EXPECT_GT(stats.ioTransientRetries, 0u);
        EXPECT_EQ(stats.secondaryErrors, 0u);
        EXPECT_EQ(engine.lastPoolOutstanding(), 0u);
    }
}

TEST(StreamEngineFaults, ShortTransfersAndEintrAreInvisible)
{
    // A storm of short transfers and EINTR on the spill device: no
    // retries burned, no error, identical bytes — just telemetry.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    auto expected = data;
    StreamEngine<Record>(faultOptions(1)).sortInPlace(expected);

    for (const unsigned threads : {1u, 4u}) {
        io::FileRunStore<Record> front;
        io::FileRunStore<Record> back;
        io::FaultPlan plan;
        plan.seed = 7;
        plan.shortEveryReads = 3;
        plan.shortEveryWrites = 3;
        plan.eintrEvery = 11;
        front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        back.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));

        const StreamEngine<Record> engine(faultOptions(threads));
        StreamStats stats;
        const auto out = streamSort(engine, data, front, back, &stats);
        ASSERT_EQ(out, expected);
        EXPECT_GT(stats.ioShortTransfers, 0u);
        EXPECT_GT(stats.ioEintrRetries, 0u);
        EXPECT_EQ(stats.ioTransientRetries, 0u);
    }
}

TEST(StreamEngineFaults, FailureTelemetryCountsSecondaryErrors)
{
    // When every read on the spill device dies, several concurrent
    // tasks fail behind the first; they must be absorbed into the
    // secondary tally, never thrown.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> back;
    io::FaultPlan plan;
    plan.eioOnReadAttempt = 1;
    plan.eioFailures = 1'000'000;
    front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
    front.setRetryPolicy(fastRetries());

    const StreamEngine<Record> engine(faultOptions(4));
    EXPECT_THROW(streamSort(engine, data, front, back),
                 std::runtime_error);
    EXPECT_EQ(engine.lastPoolOutstanding(), 0u);
    // Zero or more are possible depending on scheduling; the accessor
    // itself must be consistent with a clean unwind (no crash, and a
    // value that was actually published).
    (void)engine.lastSecondaryErrors();
}

} // namespace
} // namespace bonsai::sorter
