/** @file Unit tests for the behavioral multistage sorter. */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/checks.hpp"
#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/record_buffer.hpp"
#include "common/thread_pool.hpp"
#include "gensort_keys.hpp"
#include "hw/bitonic.hpp"
#include "model/perf_model.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/merge_tree.hpp"
#include "sorter/stage_plan.hpp"

namespace bonsai
{
namespace
{

void
checkSort(std::size_t n, unsigned ell, Distribution dist,
          std::uint64_t presort = 16)
{
    auto data = makeRecords(n, dist);
    const Fingerprint before =
        fingerprint(std::span<const Record>(data));
    sorter::BehavioralSorter<Record> sorter(ell, presort);
    sorter.sort(data);
    EXPECT_TRUE(isSorted(std::span<const Record>(data)))
        << "n=" << n << " ell=" << ell;
    EXPECT_EQ(before, fingerprint(std::span<const Record>(data)));
}

TEST(Behavioral, SortsAllDistributions)
{
    for (Distribution dist :
         {Distribution::UniformRandom, Distribution::Sorted,
          Distribution::Reverse, Distribution::AllEqual,
          Distribution::FewDistinct, Distribution::NearlySorted}) {
        checkSort(10'000, 16, dist);
    }
}

class BehavioralSizes
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(BehavioralSizes, SortsRandomInput)
{
    const auto [n, ell] = GetParam();
    checkSort(static_cast<std::size_t>(n),
              static_cast<unsigned>(ell),
              Distribution::UniformRandom);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BehavioralSizes,
    ::testing::Combine(::testing::Values(0, 1, 2, 15, 16, 17, 255,
                                         4096, 100'000),
                       ::testing::Values(2, 4, 16, 64, 256)));

TEST(Behavioral, StageCountMatchesModel)
{
    for (std::size_t n : {1000u, 65536u, 1'000'000u}) {
        for (unsigned ell : {4u, 16u, 64u}) {
            auto data =
                makeRecords(n, Distribution::UniformRandom);
            sorter::BehavioralSorter<Record> sorter(ell, 16);
            const auto stats = sorter.sort(data);
            EXPECT_EQ(stats.stages, model::mergeStages(n, ell, 16))
                << "n=" << n << " ell=" << ell;
        }
    }
}

TEST(Behavioral, NoPresortUsesSingleRecordRuns)
{
    auto data = makeRecords(512, Distribution::Reverse);
    sorter::BehavioralSorter<Record> sorter(4, 1);
    const auto stats = sorter.sort(data);
    EXPECT_TRUE(isSorted(std::span<const Record>(data)));
    EXPECT_EQ(stats.stages, model::mergeStages(512, 4, 1));
}

TEST(Behavioral, RecordsMovedIsNTimesStages)
{
    auto data = makeRecords(4096, Distribution::UniformRandom);
    sorter::BehavioralSorter<Record> sorter(16, 16);
    const auto stats = sorter.sort(data);
    EXPECT_EQ(stats.recordsMoved,
              static_cast<std::uint64_t>(4096) * stats.stages);
}

TEST(Behavioral, SortsWideGensortRecords)
{
    GensortGenerator gen(11);
    auto packed = packGensort(gen.generate(0, 20'000));
    const Fingerprint before =
        fingerprint(std::span<const Record128>(packed));
    sorter::BehavioralSorter<Record128> sorter(64, 16);
    sorter.sort(packed);
    EXPECT_TRUE(isSorted(std::span<const Record128>(packed)));
    EXPECT_EQ(before, fingerprint(std::span<const Record128>(packed)));
}

TEST(Behavioral, ParallelExecutionMatchesSerial)
{
    auto serial = makeRecords(120'000, Distribution::UniformRandom, 8);
    auto parallel = serial;
    sorter::BehavioralSorter<Record>(64, 16, 1).sort(serial);
    sorter::BehavioralSorter<Record>(64, 16, 4).sort(parallel);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i].key, parallel[i].key);
    EXPECT_TRUE(isSorted(std::span<const Record>(parallel)));
}

TEST(Behavioral, UmbrellaHeaderCompiles)
{
    // bonsai.hpp is validated by inclusion in sorters_test; here we
    // only assert the parallel path on an adversarial distribution.
    auto data = makeRecords(50'000, Distribution::AllEqual);
    sorter::BehavioralSorter<Record>(16, 16, 8).sort(data);
    EXPECT_TRUE(isSorted(std::span<const Record>(data)));
}

/** Serial and threaded sorts must agree byte-for-byte (records, not
 *  just keys) and report identical statistics — the Merge Path
 *  determinism guarantee. */
void
checkThreadDeterminism(std::size_t n, unsigned ell, Distribution dist,
                       std::uint64_t presort = 16)
{
    const auto input = makeRecords(n, dist, 17);
    auto serial = input;
    const auto serial_stats =
        sorter::BehavioralSorter<Record>(ell, presort, 1).sort(serial);
    for (unsigned threads : {2u, 3u, 8u}) {
        auto parallel = input;
        const auto stats =
            sorter::BehavioralSorter<Record>(ell, presort, threads)
                .sort(parallel);
        EXPECT_EQ(stats, serial_stats) << "threads=" << threads;
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_EQ(parallel[i], serial[i])
                << "record " << i << " threads=" << threads;
        }
    }
    EXPECT_TRUE(isSorted(std::span<const Record>(serial)));
}

TEST(Behavioral, ThreadCountNeverChangesOutput)
{
    checkThreadDeterminism(120'000, 64, Distribution::UniformRandom);
}

TEST(Behavioral, ThreadDeterminismNonPowerOfTwoN)
{
    checkThreadDeterminism(100'003, 16, Distribution::UniformRandom);
}

TEST(Behavioral, ThreadDeterminismAllEqualKeys)
{
    // All-equal keys with distinct payloads is the adversarial case
    // for merge partitioning: any tie-break drift across slices shows
    // up as reordered payloads.
    checkThreadDeterminism(50'000, 16, Distribution::AllEqual);
}

TEST(Behavioral, ThreadDeterminismFewDistinctKeys)
{
    checkThreadDeterminism(60'000, 16, Distribution::FewDistinct);
}

TEST(Behavioral, ThreadDeterminismWithoutPresorter)
{
    checkThreadDeterminism(30'000, 16, Distribution::UniformRandom,
                           /*presort=*/1);
}

TEST(Behavioral, MatchesStdSort)
{
    auto data = makeRecords(33'333, Distribution::UniformRandom, 5);
    auto expect = data;
    std::sort(expect.begin(), expect.end());
    sorter::BehavioralSorter<Record> sorter(16, 16);
    sorter.sort(data);
    ASSERT_EQ(data.size(), expect.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(data[i].key, expect[i].key);
}

TEST(Behavioral, EveryStageParityEndsInTheCallersRange)
{
    // 0, 1, 2 and 3 stages at ell = 16: the presort lands in the
    // caller's range or in the scratch so that the last stage writes
    // the caller's range.  One scratch serves every size, grown on
    // demand and never cleared.
    ThreadPool pool(3);
    RecordBuffer<Record> scratch;
    const sorter::BehavioralSorter<Record> sorter(16, 16, 3);
    const std::pair<std::size_t, unsigned> cases[] = {
        {10, 0}, {200, 1}, {3000, 2}, {50'000, 3}, {1000, 2}};
    for (const auto &[n, stages] : cases) {
        const auto input = makeRecords(n, Distribution::FewDistinct, n);
        auto want = input;
        const auto want_stats = sorter.sort(want);
        auto got = input;
        EXPECT_EQ(sorter.sort(std::span<Record>(got), pool, scratch),
                  want_stats);
        EXPECT_EQ(got, want) << "n=" << n;
        got = input;
        sorter.sort(std::span<Record>(got), pool);
        EXPECT_EQ(got, want) << "n=" << n;
        EXPECT_TRUE(isSorted(std::span<const Record>(got)));
        EXPECT_EQ(want_stats.stages, stages) << "n=" << n;
    }
}

/**
 * The sorter spelled out with the reference parts: presort each run
 * with hw::bitonicSortNetwork (std::sort on a tail that is not a
 * power of two), then merge each StagePlan group with one MergeTree.
 */
std::vector<Record>
referenceSort(std::vector<Record> data, unsigned ell, std::uint64_t run)
{
    std::vector<RunSpan> runs = chunkRuns(data.size(), run);
    for (const RunSpan &r : runs) {
        const std::span<Record> block(data.data() + r.offset, r.length);
        if (hw::isPow2(block.size()))
            hw::bitonicSortNetwork(block);
        else
            std::sort(block.begin(), block.end());
    }
    std::vector<Record> other(data.size());
    while (runs.size() > 1) {
        const sorter::StagePlan plan(std::move(runs), ell);
        const std::vector<RunSpan> out = plan.outputRuns();
        for (std::uint64_t g = 0; g < plan.groups(); ++g) {
            std::vector<std::span<const Record>> members;
            for (const RunSpan &r : plan.groupRuns(g))
                members.emplace_back(data.data() + r.offset, r.length);
            sorter::MergeTree<Record>(members).merge(other.data() +
                                                     out[g].offset);
        }
        runs = out;
        data.swap(other);
    }
    return data;
}

TEST(Behavioral, PresortRunLengthsMatchTheReferenceSort)
{
    for (const std::uint64_t run : {1u, 8u, 16u, 32u}) {
        for (const std::size_t n : {1003u, 40'005u}) {
            for (const Distribution dist :
                 {Distribution::FewDistinct, Distribution::UniformRandom}) {
                const auto input = makeRecords(n, dist, run + n);
                const auto want = referenceSort(input, 16, run);
                for (const unsigned threads : {1u, 4u}) {
                    auto got = input;
                    sorter::BehavioralSorter<Record>(16, run, threads)
                        .sort(got);
                    EXPECT_EQ(got, want)
                        << "run=" << run << " n=" << n << " dist="
                        << static_cast<int>(dist)
                        << " threads=" << threads;
                }
            }
        }
    }
}

/** Order-dependent FNV-1a digest over every record's key and value. */
std::uint64_t
orderedDigest(std::span<const Record> recs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Record &r : recs) {
        for (const std::uint64_t word : {r.key, r.value}) {
            h ^= word;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

class BehavioralGolden
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

/** Sort @p input through the vector and the span overloads at
 *  fan-in @p ell on @p threads threads; both must give @p golden. */
void
expectDigest(const std::vector<Record> &input, unsigned ell,
             unsigned threads, std::uint64_t golden)
{
    auto data = input;
    sorter::BehavioralSorter<Record>(ell, 16, threads).sort(data);
    EXPECT_EQ(orderedDigest(data), golden);

    data = input;
    ThreadPool pool(threads);
    sorter::BehavioralSorter<Record>(ell, 16, threads)
        .sort(std::span<Record>(data), pool);
    EXPECT_EQ(orderedDigest(data), golden);
}

/** The sorted bytes of a FewDistinct input are pinned per fan-in.
 *  Each merge stage keeps the (key, input index, position) order, so
 *  the digest is the same for every thread count and Merge Path
 *  slicing; it differs between fan-ins only because a stage's groups
 *  take strided runs (StagePlan::groupRuns).  A merge kernel that
 *  reorders ties changes it. */
TEST_P(BehavioralGolden, FewDistinctDigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    const std::uint64_t golden = ell == 2 ? 682775178126978180ULL
        : ell == 16                       ? 4815198268905582772ULL
                                          : 1357850893837343016ULL;
    expectDigest(makeRecords(200'003, Distribution::FewDistinct, 29), ell,
                 threads, golden);
}

/** As above over 16 keys that straddle 2^63 (2^63 - 7 .. 2^63 + 8),
 *  where a presorter or merger that compared keys as signed words
 *  would order the upper half first. */
TEST_P(BehavioralGolden, FewDistinctKeysAcross2To63DigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    const std::uint64_t golden = ell == 2 ? 7449966820395869071ULL
        : ell == 16                       ? 11213799219694727531ULL
                                          : 1385614997471880327ULL;
    auto input = makeRecords(200'003, Distribution::FewDistinct, 31);
    for (Record &r : input)
        r.key += (std::uint64_t{1} << 63) - 8;
    expectDigest(input, ell, threads, golden);
}

INSTANTIATE_TEST_SUITE_P(
    FanInsAndThreads, BehavioralGolden,
    ::testing::Combine(::testing::Values(2u, 16u, 128u),
                       ::testing::Values(1u, 4u)));

class BehavioralGensortGolden
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

/** Sort @p keys gensort records at fan-in @p ell on @p threads
 *  threads through the vector and the scratch-reusing span overloads;
 *  both must give @p golden. */
void
expectGensortDigest(GensortKeys keys, unsigned ell, unsigned threads,
                    std::uint64_t golden)
{
    // 2500 16-record presort runs and a 3-record tail.
    const auto input = makeGensortKeys(40'003, keys, 43);
    const sorter::BehavioralSorter<GensortRecord> sorter(ell, 16, threads);
    auto data = input;
    sorter.sort(data);
    EXPECT_EQ(gensortDigest(data), golden);

    data = input;
    ThreadPool pool(threads);
    RecordBuffer<GensortRecord> scratch;
    sorter.sort(std::span<GensortRecord>(data), pool, scratch);
    EXPECT_EQ(gensortDigest(data), golden);
}

/** The sorted bytes of gensort inputs whose keys tie in part or in
 *  whole are pinned per fan-in, as BehavioralGolden pins 16-byte
 *  records: a presorter or merger that orders equal keys differently,
 *  or that decides a tie in bytes 0-7 wrongly, changes them. */
TEST_P(BehavioralGensortGolden, PrefixTieDigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    const std::uint64_t golden = ell == 2 ? 9179823644286079317ULL
        : ell == 16                       ? 7206167243650969549ULL
        : ell == 32                       ? 5457992635155414221ULL
                                          : 3497153801170366481ULL;
    expectGensortDigest(GensortKeys::PrefixTie, ell, threads, golden);
}

TEST_P(BehavioralGensortGolden, FewDistinctDigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    const std::uint64_t golden = ell == 2 ? 8369482270337021871ULL
        : ell == 16                       ? 11332744970936572323ULL
        : ell == 32                       ? 10488976153090843103ULL
                                          : 10066596983541885079ULL;
    expectGensortDigest(GensortKeys::FewDistinct, ell, threads, golden);
}

TEST_P(BehavioralGensortGolden, AllEqualDigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    const std::uint64_t golden = ell == 2 ? 9309053775678813040ULL
        : ell == 16                       ? 7272777421245380816ULL
        : ell == 32                       ? 14258742878139646896ULL
                                          : 6545505146240465520ULL;
    expectGensortDigest(GensortKeys::AllEqual, ell, threads, golden);
}

INSTANTIATE_TEST_SUITE_P(
    FanInsAndThreads, BehavioralGensortGolden,
    ::testing::Combine(::testing::Values(2u, 16u, 32u, 64u),
                       ::testing::Values(1u, 4u)));

} // namespace
} // namespace bonsai
