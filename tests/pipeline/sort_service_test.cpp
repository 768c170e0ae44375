/** @file
 * Tests for the SortService: several concurrent sort jobs over one
 * global buffer-pool budget must emit exactly the bytes their serial,
 * private-pool counterparts do, finish even when a sibling job fails,
 * split the budget fairly, stay within it at peak, and refuse loudly
 * a job count the budget cannot make progress on.
 */

#include <gtest/gtest.h>

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
#include "io/manifest.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "pipeline/sort_service.hpp"
#include "sorter/external.hpp"

namespace bonsai::pipeline
{
namespace
{

using sorter::StreamEngine;
using sorter::StreamStats;

/** Same small shape as the stream-engine tests; the budget is the
 *  GLOBAL bound shared by every concurrent job. */
StreamEngine<Record>::Options
serviceOptions(unsigned threads, std::uint64_t budget_buffers)
{
    StreamEngine<Record>::Options opt;
    opt.phase1Ell = 4;
    opt.phase2Ell = 4;
    opt.presortRun = 16;
    opt.chunkRecords = 1000;
    opt.batchRecords = 128;
    opt.bufferBudgetBytes = budget_buffers * 128 * sizeof(Record);
    opt.threads = threads;
    return opt;
}

/** One job's endpoints, owned together so vectors outlive the run. */
struct JobFixture
{
    explicit JobFixture(std::vector<Record> data)
        : input(std::move(data)),
          source{std::span<const Record>(input)}, sink(output)
    {
        output.reserve(input.size());
    }

    sorter::SortRequest<Record>
    job()
    {
        return {.source = &source, .sink = &sink, .front = &front,
                .back = &back};
    }

    std::vector<Record> input;
    std::vector<Record> output;
    io::MemorySource<Record> source;
    io::MemorySink<Record> sink;
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> back;
};

/** The same sort run serially with a private pool — the byte-level
 *  reference every service job must match. */
std::vector<Record>
serialReference(const StreamEngine<Record>::Options &opt,
                const std::vector<Record> &data)
{
    JobFixture fix(data);
    const StreamEngine<Record> engine(opt);
    engine.sortStream(fix.source, fix.sink, fix.front, fix.back);
    return fix.output;
}

TEST(SortService, ConcurrentJobsMatchSerialPrivatePoolRuns)
{
    // Two jobs with adversarial inputs (equal-key flood vs. random)
    // share one pool; each output must be byte-identical to its
    // serial private-pool run, at every thread width — the shared
    // budget may change each job's pass shape, never its bytes.
    const auto flood = makeRecords(12'000, Distribution::FewDistinct);
    const auto random =
        makeRecords(8'000, Distribution::UniformRandom);

    for (const unsigned threads : {1u, 4u}) {
        const auto opt = serviceOptions(threads, 64);
        const auto expect_flood = serialReference(opt, flood);
        const auto expect_random = serialReference(opt, random);

        JobFixture a(flood);
        JobFixture b(random);
        const SortService<Record> service(opt);
        const std::vector<StreamStats> results =
            service.run({a.job(), b.job()});

        ASSERT_EQ(results.size(), 2u);
        EXPECT_EQ(a.output, expect_flood)
            << "concurrent job changed bytes at threads=" << threads;
        EXPECT_EQ(b.output, expect_random)
            << "concurrent job changed bytes at threads=" << threads;
        EXPECT_EQ(results[0].recordsIn, 12'000u);
        EXPECT_EQ(results[1].recordsIn, 8'000u);
    }
}

TEST(SortService, FailedJobDoesNotCancelItsSibling)
{
    // One job's spill device fails for good; the service rethrows
    // that job's error only after its sibling finished, and the
    // sibling's output is exactly its serial private-pool bytes.
    const auto failing = makeRecords(12'000, Distribution::UniformRandom);
    const auto healthy = makeRecords(8'000, Distribution::FewDistinct);
    io::RetryPolicy fast;
    fast.backoffBaseMicros = 1;

    for (const unsigned threads : {1u, 4u}) {
        const auto opt = serviceOptions(threads, 64);
        const auto expect_healthy = serialReference(opt, healthy);

        JobFixture a(failing);
        JobFixture b(healthy);
        io::FaultPlan plan;
        plan.eioOnWriteAttempt = 2;
        plan.eioFailures = 1'000'000; // never heals
        a.front.setFaultPolicy(std::make_shared<io::FaultInjector>(plan));
        a.front.setRetryPolicy(fast);

        const SortService<Record> service(opt);
        std::string msg;
        try {
            service.run({a.job(), b.job()});
        } catch (const std::runtime_error &e) {
            msg = e.what();
        }
        EXPECT_NE(msg.find("pwrite failed"), std::string::npos)
            << "threads=" << threads << ": " << msg;
        EXPECT_EQ(b.output, expect_healthy)
            << "failed job cancelled its sibling at threads="
            << threads;
    }
}

TEST(SortService, PeakPoolUsageStaysWithinTheGlobalBudget)
{
    const auto opt = serviceOptions(4, 64);
    JobFixture a(makeRecords(10'000, Distribution::UniformRandom));
    JobFixture b(makeRecords(10'000, Distribution::FewDistinct));
    const SortService<Record> service(opt);
    const std::vector<StreamStats> results =
        service.run({a.job(), b.job()});

    // Peak telemetry is pool-wide (the pool is shared), so any job's
    // report bounds the whole service's resident batch memory.
    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[0].bufferPoolPeakBytes, 0u);
    EXPECT_LE(results[0].bufferPoolPeakBytes,
              results[0].bufferPoolBytes);
    EXPECT_EQ(results[0].bufferPoolBytes, opt.bufferBudgetBytes);
}

TEST(SortService, JobsSplitTheBudgetIntoEqualAllowances)
{
    // 16 buffers across 2 jobs leave each an 8-buffer allowance:
    // fan-in (8 - 2) / 2 = 3 and one lane.  A solo engine over the
    // same pool-sized budget plans fan-in 4 — proof the cap each job
    // reports came from the fair split, not from the global supply.
    const auto opt = serviceOptions(2, 16);
    JobFixture a(makeRecords(6'000, Distribution::UniformRandom));
    JobFixture b(makeRecords(6'000, Distribution::UniformRandom));
    const SortService<Record> service(opt);
    const std::vector<StreamStats> results =
        service.run({a.job(), b.job()});

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].effectiveEll, 3u);
    EXPECT_EQ(results[1].effectiveEll, 3u);
    EXPECT_EQ(results[0].concurrentGroups, 1u);
    EXPECT_EQ(results[1].concurrentGroups, 1u);

    StreamStats solo;
    {
        JobFixture c(makeRecords(6'000, Distribution::UniformRandom));
        const StreamEngine<Record> engine(opt);
        solo = engine.sortStream(c.source, c.sink, c.front, c.back);
    }
    EXPECT_EQ(solo.effectiveEll, 4u);
}

TEST(SortService, TooManyJobsForTheBudgetFailsLoudly)
{
    // 8 buffers across 2 jobs leave 4 each — below the 6-buffer
    // minimum of one 2-way merge lane.  The service must throw the
    // shape contract up front, not deadlock two half-budgeted jobs
    // against each other.
    const auto opt = serviceOptions(2, 8);
    JobFixture a(makeRecords(3'000, Distribution::UniformRandom));
    JobFixture b(makeRecords(3'000, Distribution::UniformRandom));
    const SortService<Record> service(opt);
    EXPECT_THROW(service.run({a.job(), b.job()}), ContractViolation);
}

TEST(SortService, EmptyJobListIsANoOp)
{
    const SortService<Record> service(serviceOptions(2, 64));
    EXPECT_TRUE(service.run({}).empty());
}

TEST(SortService, CheckpointedJobsRunDurablyNextToClassicOnes)
{
    // A mixed batch: one classic job and one checkpointed job (named
    // spills + manifest under its own directory) share the pool; the
    // durable job must emit the same bytes as its serial reference
    // and journal every chunk, and a rerun of the same job directory
    // must adopt the journaled work instead of redoing it.
    const std::string dir =
        ::testing::TempDir() + "sort_service_ckpt_job";
    io::createDirectories(dir);
    const auto flood = makeRecords(12'000, Distribution::FewDistinct);
    const auto random =
        makeRecords(8'000, Distribution::UniformRandom);
    const auto opt = serviceOptions(2, 64);
    const auto expect_flood = serialReference(opt, flood);
    const auto expect_random = serialReference(opt, random);

    {
        JobFixture a(flood);
        JobFixture b(random);
        sorter::SortRequest<Record> durable = b.job();
        durable.durable.dir = dir;
        const SortService<Record> service(opt);
        const std::vector<StreamStats> results =
            service.run({a.job(), durable});
        EXPECT_EQ(a.output, expect_flood);
        EXPECT_EQ(b.output, expect_random);
        EXPECT_GT(results[1].manifestCommits, 0u);
        EXPECT_EQ(results[1].resumedChunks, 0u);
    }

    // Same directory again, now with resume required: all journaled
    // work is adopted, only the final pass is redone.
    JobFixture b(random);
    sorter::SortRequest<Record> durable = b.job();
    durable.durable.dir = dir;
    durable.durable.policy = sorter::ResumePolicy::ResumeStrict;
    const SortService<Record> service(opt);
    const std::vector<StreamStats> results =
        service.run({durable});
    EXPECT_EQ(b.output, expect_random);
    EXPECT_GT(results[0].resumedChunks, 0u);
    EXPECT_EQ(results[0].manifestCommits, 0u);

    io::removeJobArtifacts(dir);
    ::rmdir(dir.c_str());
}

} // namespace
} // namespace bonsai::pipeline
