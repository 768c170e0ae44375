/** @file Unit tests for the out-of-core streaming sort engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/contract.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "gensort_keys.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "oracle_sort.hpp"
#include "sorter/external.hpp"

namespace bonsai::sorter
{
namespace
{

/** Small engine: 1000-record chunks, 4-way merges, 128-record
 *  batches with a budget comfortably above laneBuffers(ell) buffers. */
StreamEngine<Record>::Options
smallOptions()
{
    StreamEngine<Record>::Options opt;
    opt.phase1Ell = 4;
    opt.phase2Ell = 4;
    opt.presortRun = 16;
    opt.chunkRecords = 1000;
    opt.batchRecords = 128;
    opt.bufferBudgetBytes = 64 * 128 * sizeof(Record);
    opt.threads = 2;
    return opt;
}

std::vector<Record>
streamSort(const StreamEngine<Record> &engine,
           const std::vector<Record> &data, StreamStats *stats = nullptr)
{
    io::MemorySource<Record> source{std::span<const Record>(data)};
    std::vector<Record> out;
    out.reserve(data.size());
    io::MemorySink<Record> sink(out);
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> back;
    const StreamStats s = engine.sortStream(source, sink, front, back);
    if (stats)
        *stats = s;
    return out;
}

TEST(StreamEngine, SortInPlaceMatchesStdSort)
{
    auto data = makeRecords(20'000, Distribution::UniformRandom);
    auto expected = data;
    std::sort(expected.begin(), expected.end(),
              [](const Record &a, const Record &b) {
                  return a.key < b.key ||
                      (a.key == b.key && a.value < b.value);
              });

    const StreamEngine<Record> engine(smallOptions());
    const StreamStats stats = engine.sortInPlace(data);
    EXPECT_EQ(data, expected);
    EXPECT_EQ(stats.recordsIn, 20'000u);
    EXPECT_EQ(stats.phase1Chunks, 20u); // 20000 / 1000
    EXPECT_GT(stats.mergePasses, 0u);
    EXPECT_GT(stats.phase1RecordsMoved, 0u);
    EXPECT_GT(stats.recordsMoved, stats.phase1RecordsMoved);
}

TEST(StreamEngine, SortInPlaceOfOneChunkSkipsPhaseTwo)
{
    // A single phase-1 run is the sorted output: no merge pass, and
    // no data-sized scratch buffer to allocate and fill.
    auto data = makeRecords(800, Distribution::UniformRandom);
    auto expected = data;
    std::sort(expected.begin(), expected.end(),
              [](const Record &a, const Record &b) {
                  return a.key < b.key ||
                      (a.key == b.key && a.value < b.value);
              });

    const StreamEngine<Record> engine(smallOptions());
    const StreamStats stats = engine.sortInPlace(data);
    EXPECT_EQ(data, expected);
    EXPECT_EQ(stats.phase1Chunks, 1u);
    EXPECT_EQ(stats.mergePasses, 0u);
    EXPECT_EQ(stats.phase2Seconds, 0.0);
}

TEST(StreamEngine, StreamedOutputIsByteIdenticalToInPlace)
{
    // FewDistinct floods the merge with equal keys; values carry the
    // original index, so equality of the full record sequences proves
    // the streamed cursors follow the exact augmented merge order of
    // the in-memory Merge Path kernel — not just "both are sorted".
    auto in_place = makeRecords(30'000, Distribution::FewDistinct);
    const auto original = in_place;

    const StreamEngine<Record> engine(smallOptions());
    engine.sortInPlace(in_place);

    StreamStats stats;
    const auto streamed = streamSort(engine, original, &stats);
    EXPECT_EQ(streamed, in_place);

    // 31 chunk runs at fan-in 4 need 3 passes (31 -> 8 -> 2 -> 1);
    // phase 1 spills n records, every non-final pass another n, and
    // every pass reads n back.  Writes are exact for any thread
    // count; reads gain a little splitter-probe traffic when the
    // final pass runs sliced, so they are only bounded here (the
    // serial engine's reads are exact — see the accounting test).
    EXPECT_EQ(stats.effectiveEll, 4u);
    EXPECT_EQ(stats.mergePasses, 3u);
    const std::uint64_t n_bytes = 30'000u * sizeof(Record);
    EXPECT_EQ(stats.spillBytesWritten, n_bytes * stats.mergePasses);
    EXPECT_GE(stats.spillBytesRead, n_bytes * stats.mergePasses);
    EXPECT_LT(stats.spillBytesRead,
              n_bytes * stats.mergePasses + n_bytes / 10);
}

/** The bytes of a multi-chunk in-memory gensort sort — phase 1 over
 *  eight chunk ranges, then two runStage passes — are the oracle's
 *  for every key set, on one thread and on four. */
TEST(StreamEngine, GensortSortInPlaceDigestIsPinned)
{
    StreamEngine<GensortRecord>::Options opt;
    opt.phase1Ell = 16;
    opt.phase2Ell = 4;
    opt.presortRun = 16;
    opt.chunkRecords = 4000;
    opt.batchRecords = 64;
    opt.bufferBudgetBytes = 64 * 64 * sizeof(GensortRecord);
    for (const GensortKeys keys :
         {GensortKeys::Uniform, GensortKeys::PrefixTie,
          GensortKeys::FewDistinct, GensortKeys::AllEqual}) {
        const auto input = makeGensortKeys(30'011, keys, 47);
        const std::uint64_t golden = gensortDigest(oracleSort(input));
        for (const unsigned threads : {1u, 4u}) {
            opt.threads = threads;
            auto data = input;
            const StreamStats stats =
                StreamEngine<GensortRecord>(opt).sortInPlace(data);
            EXPECT_EQ(stats.phase1Chunks, 8u);
            EXPECT_EQ(stats.mergePasses, 2u);
            EXPECT_EQ(gensortDigest(data), golden)
                << "keys=" << static_cast<int>(keys)
                << " threads=" << threads;
        }
    }
}

/** (phase-2 fan-in, phase-2 passes, threads). */
class StreamEngineInPlaceGolden
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, unsigned>>
{
};

/** The bytes of a multi-chunk in-memory sort of 16-byte records are
 *  the oracle's at every phase-2 fan-in and pass count, on one thread
 *  and on four.  The chunk counts give one, two and three phase-2
 *  passes, so the merged result ends in the scratch vector (odd pass
 *  counts) and in the caller's vector (even ones). */
TEST_P(StreamEngineInPlaceGolden, FewDistinctDigestIsPinned)
{
    const auto [ell, passes, threads] = GetParam();
    struct Pin
    {
        unsigned ell;
        unsigned passes;
        std::uint64_t chunks;
    };
    // 1, 2, 3 passes: 2, 3-4, 5-8 chunks at ell 2 and 2-16, 17-256,
    // 257-4096 chunks at ell 16.
    const Pin pins[] = {
        {2, 1, 2}, {2, 2, 3}, {2, 3, 7}, {16, 1, 9}, {16, 2, 40},
        {16, 3, 268},
    };
    const std::uint64_t n = 30'011;
    for (const Pin &pin : pins) {
        if (pin.ell != ell || pin.passes != passes)
            continue;
        StreamEngine<Record>::Options opt;
        opt.phase1Ell = 16;
        opt.phase2Ell = ell;
        opt.presortRun = 16;
        opt.chunkRecords = (n + pin.chunks - 1) / pin.chunks;
        opt.batchRecords = 64;
        opt.bufferBudgetBytes = 64 * 64 * sizeof(Record);
        opt.threads = threads;
        auto data = makeRecords(n, Distribution::FewDistinct, 53);
        const std::vector<Record> want = oracleSort(data);
        const StreamStats stats =
            StreamEngine<Record>(opt).sortInPlace(data);
        EXPECT_EQ(stats.phase1Chunks, pin.chunks);
        EXPECT_EQ(stats.mergePasses, passes);
        EXPECT_EQ(stats.recordsMoved,
                  stats.phase1RecordsMoved + passes * n);
        EXPECT_EQ(data, want);
        return;
    }
    FAIL() << "no pin for ell=" << ell << " passes=" << passes;
}

INSTANTIATE_TEST_SUITE_P(
    FanInsPassesAndThreads, StreamEngineInPlaceGolden,
    ::testing::Combine(::testing::Values(2u, 16u),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 4u)));

TEST(StreamEngine, SerialStreamSpillAccountingIsExact)
{
    // threads = 1 forces one lane and a serial final pass: no
    // splitter probes, so spill traffic is exactly one full round
    // trip per merge pass.
    auto opt = smallOptions();
    opt.threads = 1;
    const StreamEngine<Record> engine(opt);

    const auto data = makeRecords(30'000, Distribution::FewDistinct);
    StreamStats stats;
    streamSort(engine, data, &stats);
    EXPECT_EQ(stats.concurrentGroups, 1u);
    EXPECT_EQ(stats.finalSlices, 1u);
    EXPECT_EQ(stats.mergePasses, 3u);
    const std::uint64_t n_bytes = 30'000u * sizeof(Record);
    EXPECT_EQ(stats.spillBytesWritten, n_bytes * stats.mergePasses);
    EXPECT_EQ(stats.spillBytesRead, n_bytes * stats.mergePasses);
}

/** Heavy skew: 90% of the keys collide on one hot value, the rest
 *  rise monotonically — adversarial for splitter balance. */
std::vector<Record>
makeSkewedRecords(std::uint64_t n)
{
    std::vector<Record> data(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t key = (i % 10 != 0) ? 5 : 5 + i;
        data[i] = Record{key, i};
    }
    return data;
}

TEST(StreamEngine, ParallelStreamIsByteIdenticalAcrossThreadCounts)
{
    // The tentpole invariant: the streamed sort emits the identical
    // byte sequence for any thread count — concurrent non-final
    // groups and the splitter-partitioned final pass included —
    // even under equal-key floods where only the augmented (key,
    // run index, position) order disambiguates.
    std::vector<std::vector<Record>> inputs;
    inputs.push_back(makeRecords(30'000, Distribution::FewDistinct));
    inputs.push_back(makeRecords(30'000, Distribution::AllEqual));
    inputs.push_back(makeRecords(30'000, Distribution::UniformRandom));
    inputs.push_back(makeSkewedRecords(30'000));

    for (const auto &data : inputs) {
        auto in_place = data;
        auto opt = smallOptions();
        opt.threads = 1;
        StreamEngine<Record>(opt).sortInPlace(in_place);

        for (const unsigned threads : {1u, 2u, 8u}) {
            opt.threads = threads;
            const StreamEngine<Record> engine(opt);
            StreamStats stats;
            const auto streamed = streamSort(engine, data, &stats);
            ASSERT_EQ(streamed, in_place)
                << "thread count " << threads
                << " changed the output bytes";
            if (threads >= 2) {
                EXPECT_GE(stats.concurrentGroups, 2u);
                EXPECT_GE(stats.finalSlices, 2u);
            }
        }
    }
}

TEST(StreamEngine, SingletonGroupIsBatchCopiedNotMerged)
{
    // 3 runs at fan-in 2 leave a 1-member group; the bypass must
    // batch-copy it with the same moved-records accounting as the
    // in-place backend (which charges every pass its full total).
    auto opt = smallOptions();
    opt.phase2Ell = 2;
    const StreamEngine<Record> engine(opt);

    const auto data = makeRecords(3 * 1000, Distribution::UniformRandom);
    auto in_place = data;
    const StreamStats mem = engine.sortInPlace(in_place);

    StreamStats stats;
    const auto streamed = streamSort(engine, data, &stats);
    EXPECT_EQ(streamed, in_place);
    EXPECT_EQ(stats.phase1Chunks, 3u);
    EXPECT_EQ(stats.mergePasses, 2u); // 3 -> 2 -> 1
    EXPECT_EQ(stats.recordsMoved, mem.recordsMoved);
}

TEST(StreamEngine, BudgetAdmittingOneLaneFallsBackToSerial)
{
    // 10 buffers hold exactly one fan-in-4 lane (2*4 + 2); the shape
    // derivation must admit a single lane no matter how many threads
    // were requested, and the output must not change.
    auto opt = smallOptions();
    opt.bufferBudgetBytes = 10 * opt.batchRecords * sizeof(Record);
    opt.threads = 8;
    const StreamEngine<Record> engine(opt);

    const auto data = makeRecords(20'000, Distribution::FewDistinct);
    auto in_place = data;
    engine.sortInPlace(in_place);

    StreamStats stats;
    const auto streamed = streamSort(engine, data, &stats);
    EXPECT_EQ(streamed, in_place);
    EXPECT_EQ(stats.effectiveEll, 4u);
    EXPECT_EQ(stats.concurrentGroups, 1u);
    EXPECT_EQ(stats.finalSlices, 1u);
}

TEST(StreamEngine, PoolPeakStaysWithinTheBudget)
{
    auto opt = smallOptions();
    opt.threads = 8;
    const StreamEngine<Record> engine(opt);
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    StreamStats stats;
    streamSort(engine, data, &stats);
    EXPECT_GT(stats.bufferPoolPeakBytes, 0u);
    EXPECT_LE(stats.bufferPoolPeakBytes, stats.bufferPoolBytes);
}

TEST(StreamEngine, SerialMultiGroupPassHoldsOneBufferPerRunPlusOne)
{
    // At one thread the groups of a pass merge one after another, each
    // reading and writing on the merging thread: one buffer per input
    // cursor plus one for the writer, not the 2 ell + 2 the shape
    // reserves per lane.  Each buffer has the pass's k slots, the most
    // that one group of (members + 1) buffers fits in the 64 slots.
    auto opt = smallOptions();
    opt.threads = 1;
    const StreamEngine<Record> engine(opt);
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    StreamStats stats;
    streamSort(engine, data, &stats);
    ASSERT_EQ(stats.mergePasses, 3u); // 31 -> 8 -> 2 -> 1 runs
    EXPECT_EQ(stats.effectiveEll, 4u);
    // Groups of 4, 4 and 2 runs: k = 64 / 5, 64 / 5 and 64 / 3.
    const std::uint64_t b = opt.batchRecords;
    EXPECT_EQ(stats.passTransferRecords,
              (std::vector<std::uint64_t>{12 * b, 12 * b, 21 * b}));
    EXPECT_EQ(stats.bufferPoolPeakBytes,
              std::max<std::uint64_t>((stats.effectiveEll + 1) * 12,
                                      (2 + 1) * 21) *
                  b * sizeof(Record));
}

TEST(StreamEngine, TransfersStayWithinTheAllowanceAtEveryLaneCount)
{
    // A private pool of exactly kAllowance slots: every pass's k-slot
    // leases, final-pass slices included, must fit in the slots the
    // shape was planned against, and the sort's output must be the
    // in-memory adapter's.
    const auto data = makeRecords(30'000, Distribution::UniformRandom);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        constexpr std::uint64_t kAllowance = 64;
        auto opt = smallOptions();
        opt.threads = threads;
        opt.bufferBudgetBytes =
            kAllowance * opt.batchRecords * sizeof(Record);
        const StreamEngine<Record> engine(opt);
        std::vector<Record> want = data;
        engine.sortInPlace(want);

        StreamStats stats;
        EXPECT_EQ(streamSort(engine, data, &stats), want);
        EXPECT_EQ(stats.concurrentGroups, threads == 1 ? 1u : 4u);
        if (threads > 1) {
            EXPECT_GT(stats.finalSlices, 1u);
        }
        ASSERT_EQ(stats.passTransferRecords.size(), stats.mergePasses);
        for (const std::uint64_t t : stats.passTransferRecords)
            EXPECT_GT(t, opt.batchRecords) << "a pass left k at 1";
        EXPECT_GT(stats.bufferPoolPeakBytes, 0u);
        EXPECT_LE(stats.bufferPoolPeakBytes,
                  kAllowance * opt.batchRecords * sizeof(Record));
        EXPECT_EQ(engine.lastPoolOutstanding(), 0u);
    }
}

TEST(StreamEngine, InPlaceAndStreamedReportUnifiedTelemetry)
{
    // The in-memory adapter must fill the same telemetry fields the
    // streamed path does, so benches compare backends like for like.
    const auto opt = smallOptions();
    const StreamEngine<Record> engine(opt);

    auto data = makeRecords(10'000, Distribution::UniformRandom);
    const StreamStats mem = engine.sortInPlace(data);
    StreamStats streamed;
    streamSort(engine, makeRecords(10'000, Distribution::UniformRandom),
               &streamed);

    EXPECT_EQ(mem.batchRecords, opt.batchRecords);
    EXPECT_EQ(mem.batchRecords, streamed.batchRecords);
    EXPECT_EQ(mem.bufferPoolBytes, streamed.bufferPoolBytes);
    EXPECT_GT(mem.bufferPoolBytes, 0u);
    EXPECT_GT(mem.effectiveEll, 0u);
    EXPECT_GT(mem.concurrentGroups, 0u);
    EXPECT_GT(mem.finalSlices, 0u);
}

TEST(StreamEngine, WriteBehindKicksAreReported)
{
    // 400,000 records (6.4 MB) pass through each spill store and the
    // file sink, each past ByteFile::kWriteBehindBytes: the kicks are
    // counted.  Memory stores and a memory sink write no file.
    const auto data = makeRecords(400'000, Distribution::UniformRandom);
    const StreamEngine<Record> engine(smallOptions());

    io::MemorySource<Record> fileSource{std::span<const Record>(data)};
    const std::string outPath =
        ::testing::TempDir() + "bonsai_write_behind_stats.bin";
    io::FileSink<Record> fileSink(io::ByteFile::create(outPath));
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> back;
    const StreamStats onFiles =
        engine.sortStream(fileSource, fileSink, front, back);
    if (io::ByteFile::kWriteBehind) {
        EXPECT_GE(onFiles.ioWriteBackKicks, 1u);
        EXPECT_GE(fileSink.retryStats().writeBackKicks, 1u);
        EXPECT_EQ(onFiles.ioWriteBackKicks,
                  front.retryStats().writeBackKicks +
                      back.retryStats().writeBackKicks +
                      fileSink.retryStats().writeBackKicks);
    } else {
        EXPECT_EQ(onFiles.ioWriteBackKicks, 0u);
    }
    EXPECT_GE(onFiles.ioWriteBackSeconds, 0.0);
    std::remove(outPath.c_str());

    std::vector<Record> frontMem(data.size());
    std::vector<Record> backMem(data.size());
    io::MemoryRunStore<Record> frontStore(frontMem);
    io::MemoryRunStore<Record> backStore(backMem);
    io::MemorySource<Record> memSource{std::span<const Record>(data)};
    std::vector<Record> out;
    io::MemorySink<Record> memSink(out);
    const StreamStats inMemory =
        engine.sortStream(memSource, memSink, frontStore, backStore);
    EXPECT_EQ(inMemory.ioWriteBackKicks, 0u);
    EXPECT_EQ(inMemory.ioWriteBackSeconds, 0.0);
}

TEST(StreamEngine, EmptySourceProducesEmptyOutput)
{
    const StreamEngine<Record> engine(smallOptions());
    StreamStats stats;
    const auto out = streamSort(engine, {}, &stats);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.recordsIn, 0u);
    EXPECT_EQ(stats.mergePasses, 0u);
    EXPECT_EQ(stats.spillBytesWritten, 0u);
}

TEST(StreamEngine, EmptySourceSucceedsUnderABudgetBelowOneBatch)
{
    // The empty check runs before any pool is built, so a budget that
    // could not hold a single batch buffer is never consulted.
    auto opt = smallOptions();
    opt.batchRecords = 4096;
    opt.bufferBudgetBytes = 1024; // less than one batch buffer
    const StreamEngine<Record> engine(opt);
    StreamStats stats;
    const auto out = streamSort(engine, {}, &stats);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stats.recordsIn, 0u);
    EXPECT_EQ(stats.batchRecords, 4096u);
    EXPECT_EQ(engine.lastPoolOutstanding(), 0u);
}

TEST(StreamEngine, SingleRunStreamsStraightToTheSink)
{
    // Fewer records than one chunk: phase 1 produces a single run and
    // the one merge "pass" is a streamed copy into the sink.
    const auto data = makeRecords(500, Distribution::Reverse);
    const StreamEngine<Record> engine(smallOptions());
    StreamStats stats;
    const auto out = streamSort(engine, data, &stats);

    auto expected = data;
    engine.sortInPlace(expected);
    EXPECT_EQ(out, expected);
    EXPECT_EQ(stats.phase1Chunks, 1u);
    EXPECT_EQ(stats.mergePasses, 1u);
}

TEST(StreamEngine, RunCountExactlyEllMergesInOnePass)
{
    const auto data = makeRecords(4 * 1000, Distribution::UniformRandom);
    const StreamEngine<Record> engine(smallOptions());
    StreamStats stats;
    const auto out = streamSort(engine, data, &stats);

    auto expected = data;
    engine.sortInPlace(expected);
    EXPECT_EQ(out, expected);
    EXPECT_EQ(stats.phase1Chunks, 4u); // exactly ell runs
    EXPECT_EQ(stats.mergePasses, 1u);  // one group, straight to sink
}

TEST(StreamEngine, FanInIsCappedByTheBufferBudget)
{
    auto opt = smallOptions();
    opt.phase2Ell = 16;
    // Room for exactly 10 buffers: 2 for write-back, 2 per cursor ->
    // fan-in 4 despite the requested 16.
    opt.bufferBudgetBytes = 10 * opt.batchRecords * sizeof(Record);
    const StreamEngine<Record> engine(opt);

    const auto data = makeRecords(20'000, Distribution::UniformRandom);
    StreamStats stats;
    const auto out = streamSort(engine, data, &stats);
    EXPECT_EQ(stats.effectiveEll, 4u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                               [](const Record &a, const Record &b) {
                                   return a.key < b.key;
                               }));
    EXPECT_EQ(out.size(), data.size());
}

TEST(StreamEngine, BudgetSmallerThanOneBatchFailsLoudly)
{
    auto opt = smallOptions();
    opt.batchRecords = 4096;
    opt.bufferBudgetBytes = 1024; // less than one batch buffer
    const StreamEngine<Record> engine(opt);
    const auto data = makeRecords(100, Distribution::UniformRandom);
    EXPECT_THROW(streamSort(engine, data), ContractViolation);
}

TEST(StreamEngine, BudgetBelowTwoWayMergeFailsLoudly)
{
    auto opt = smallOptions();
    // Five buffers fit — one short of the 2-cursor + write-back
    // minimum.  Must throw up front, before any lease is taken.
    opt.bufferBudgetBytes = 5 * opt.batchRecords * sizeof(Record);
    const StreamEngine<Record> engine(opt);
    const auto data = makeRecords(100, Distribution::UniformRandom);
    EXPECT_THROW(streamSort(engine, data), ContractViolation);
}

TEST(StreamEngine, TerminalRecordInTheStreamIsRejected)
{
    auto data = makeRecords(2000, Distribution::UniformRandom);
    data[1234] = Record::terminal();
    const StreamEngine<Record> engine(smallOptions());
    EXPECT_THROW(streamSort(engine, data), ContractViolation);
}

TEST(StreamEngine, SourceEndingEarlyFailsLoudly)
{
    /** A source that claims more records than it can deliver. */
    class ShortSource : public io::RecordSource<Record>
    {
      public:
        std::uint64_t totalRecords() const override { return 1000; }
        std::uint64_t
        read(Record *dst, std::uint64_t max) override
        {
            const std::uint64_t n = std::min<std::uint64_t>(
                max, left_ > 0 ? left_ : 0);
            for (std::uint64_t i = 0; i < n; ++i)
                dst[i] = Record{i + 1, i};
            left_ -= n;
            return n;
        }

      private:
        std::uint64_t left_ = 700;
    };

    ShortSource source;
    std::vector<Record> out;
    io::MemorySink<Record> sink(out);
    io::FileRunStore<Record> front;
    io::FileRunStore<Record> back;
    const StreamEngine<Record> engine(smallOptions());
    EXPECT_THROW(engine.sortStream(source, sink, front, back),
                 ContractViolation);
}

} // namespace
} // namespace bonsai::sorter
