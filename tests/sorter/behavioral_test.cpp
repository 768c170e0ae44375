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
#include "model/perf_model.hpp"
#include "oracle_sort.hpp"
#include "sorter/behavioral.hpp"

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

TEST(Behavioral, PresortRunLengthsMatchTheReferenceSort)
{
    for (const std::uint64_t run : {1u, 8u, 16u, 32u}) {
        for (const std::size_t n : {1003u, 40'005u}) {
            for (const Distribution dist :
                 {Distribution::FewDistinct, Distribution::UniformRandom}) {
                const auto input = makeRecords(n, dist, run + n);
                const auto want = oracleSort(input);
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

class BehavioralGolden
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

/** Sort @p input through the vector and the span overloads at
 *  fan-in @p ell on @p threads threads; both must give the oracle. */
void
expectOracle(const std::vector<Record> &input, unsigned ell,
             unsigned threads)
{
    const std::vector<Record> want = oracleSort(input);
    auto data = input;
    sorter::BehavioralSorter<Record>(ell, 16, threads).sort(data);
    EXPECT_EQ(data, want);

    data = input;
    ThreadPool pool(threads);
    sorter::BehavioralSorter<Record>(ell, 16, threads)
        .sort(std::span<Record>(data), pool);
    EXPECT_EQ(data, want);
}

/** The sorted bytes of a FewDistinct input are the oracle's at every
 *  fan-in and thread count: each merge stage takes contiguous run
 *  groups and keeps the (key, input index, position) order, so equal
 *  keys leave in the order the presort left them.  A merge kernel or
 *  a grouping that reorders ties fails it. */
TEST_P(BehavioralGolden, FewDistinctDigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    expectOracle(makeRecords(200'003, Distribution::FewDistinct, 29), ell,
                 threads);
}

/** As above over 16 keys that straddle 2^63 (2^63 - 7 .. 2^63 + 8),
 *  where a presorter or merger that compared keys as signed words
 *  would order the upper half first. */
TEST_P(BehavioralGolden, FewDistinctKeysAcross2To63DigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    auto input = makeRecords(200'003, Distribution::FewDistinct, 31);
    for (Record &r : input)
        r.key += (std::uint64_t{1} << 63) - 8;
    expectOracle(input, ell, threads);
}

INSTANTIATE_TEST_SUITE_P(
    FanInsAndThreads, BehavioralGolden,
    ::testing::Combine(::testing::Values(2u, 16u, 128u),
                       ::testing::Values(1u, 4u)));

class BehavioralGensortGolden
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

/** Sort gensort records of key set @p keys at fan-in @p ell on
 *  @p threads threads through the vector and the scratch-reusing span
 *  overloads; both must give the oracle's bytes. */
void
expectGensortOracle(GensortKeys keys, unsigned ell, unsigned threads)
{
    // 2500 16-record presort runs and a 3-record tail.
    const auto input = makeGensortKeys(40'003, keys, 43);
    const std::uint64_t want = gensortDigest(oracleSort(input));
    const sorter::BehavioralSorter<GensortRecord> sorter(ell, 16, threads);
    auto data = input;
    sorter.sort(data);
    EXPECT_EQ(gensortDigest(data), want);

    data = input;
    ThreadPool pool(threads);
    RecordBuffer<GensortRecord> scratch;
    sorter.sort(std::span<GensortRecord>(data), pool, scratch);
    EXPECT_EQ(gensortDigest(data), want);
}

/** The sorted bytes of gensort inputs whose keys tie in part or in
 *  whole are the oracle's at every fan-in, as BehavioralGolden checks
 *  16-byte records: a presorter or merger that orders equal keys
 *  differently, or that decides a tie in bytes 0-7 wrongly, fails. */
TEST_P(BehavioralGensortGolden, PrefixTieDigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    expectGensortOracle(GensortKeys::PrefixTie, ell, threads);
}

TEST_P(BehavioralGensortGolden, FewDistinctDigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    expectGensortOracle(GensortKeys::FewDistinct, ell, threads);
}

TEST_P(BehavioralGensortGolden, AllEqualDigestIsPinned)
{
    const auto [ell, threads] = GetParam();
    expectGensortOracle(GensortKeys::AllEqual, ell, threads);
}

INSTANTIATE_TEST_SUITE_P(
    FanInsAndThreads, BehavioralGensortGolden,
    ::testing::Combine(::testing::Values(2u, 16u, 32u, 64u),
                       ::testing::Values(1u, 4u)));

} // namespace
} // namespace bonsai
