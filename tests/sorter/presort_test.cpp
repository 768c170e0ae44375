/**
 * @file
 * Differential tests for the presorter: every path through
 * sorter::presortBlock and sorter::presortRuns must write, byte for
 * byte, what hw::bitonicSortNetwork writes on the same run — the
 * register network included, since the network is not stable and only
 * the same compare-exchange sequence gives the same order of ties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "common/thread_pool.hpp"
#include "hw/bitonic.hpp"
#include "sorter/presort.hpp"

namespace bonsai
{
namespace
{

template <typename RecordT>
void
expectSameBytes(std::span<const RecordT> got, std::span<const RecordT> want)
{
    ASSERT_EQ(got.size(), want.size());
    if (std::memcmp(got.data(), want.data(), got.size_bytes()) == 0)
        return;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(RecordT)), 0)
            << "record " << i << " of " << got.size();
    }
}

/** The reference: hw::bitonicSortNetwork on a copy of @p block. */
template <typename RecordT>
std::vector<RecordT>
networkSorted(std::span<const RecordT> block)
{
    std::vector<RecordT> out(block.begin(), block.end());
    hw::bitonicSortNetwork(std::span<RecordT>(out));
    return out;
}

/** Every path that sorts a 16-record Record block: the dispatching
 *  presortBlock in place and out of place, and the register network
 *  directly when this CPU runs it. */
void
expectAllPathsMatchNetwork(std::span<const Record> block)
{
    ASSERT_EQ(block.size(), 16u);
    const std::vector<Record> want = networkSorted(block);

    std::vector<Record> out(16);
    sorter::presortBlock(block.data(), out.data(), 16);
    expectSameBytes<Record>(out, want);

    std::vector<Record> in_place(block.begin(), block.end());
    sorter::presortBlock(in_place.data(), in_place.data(), 16);
    expectSameBytes<Record>(in_place, want);

#if BONSAI_AVX512
    if (haveAvx512f()) {
        std::vector<Record> simd(16);
        sorter::bitonicSort16Avx512(block.data(), simd.data());
        expectSameBytes<Record>(simd, want);
    }
#endif
}

/** Every whole 16-record block of @p recs, checked on every path. */
void
expectBlocksMatchNetwork(const std::vector<Record> &recs)
{
    for (std::size_t lo = 0; lo + 16 <= recs.size(); lo += 16) {
        SCOPED_TRACE(::testing::Message() << "block at " << lo);
        expectAllPathsMatchNetwork(
            std::span<const Record>(recs.data() + lo, 16));
    }
}

TEST(Presort, ZeroOneKeysExhaustive)
{
    // Every 0-1 key pattern, with distinct values so the order the
    // network leaves equal keys in is visible.
    std::vector<Record> block(16);
    for (unsigned bits = 0; bits < (1u << 16); ++bits) {
        for (unsigned i = 0; i < 16; ++i)
            block[i] = Record{(bits >> i) & 1u, 100 + i};
        SCOPED_TRACE(::testing::Message() << "bits=" << bits);
        expectAllPathsMatchNetwork(block);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(Presort, RandomFewDistinctAndAllEqualKeys)
{
    for (const Distribution dist :
         {Distribution::UniformRandom, Distribution::FewDistinct,
          Distribution::AllEqual, Distribution::Reverse}) {
        SCOPED_TRACE(::testing::Message()
                     << "dist=" << static_cast<int>(dist));
        expectBlocksMatchNetwork(makeRecords(16 * 512, dist, 5));
    }
}

TEST(Presort, KeysAtAndAbove2To63CompareUnsigned)
{
    // Keys on both sides of 2^63, where a signed compare would put the
    // upper ones first, plus the extremes.
    SplitMix64 rng(63);
    std::vector<Record> recs(16 * 256);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const std::uint64_t around = (std::uint64_t{1} << 63) - 4;
        recs[i] = Record{around + rng.nextBounded(8), i};
    }
    for (std::size_t i = 0; i < 16; ++i)
        recs[i].key = i % 2 ? ~std::uint64_t{0} : 0;
    expectBlocksMatchNetwork(recs);
    std::vector<Record> shuffled(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        shuffled[i] = Record{rng.next(), ~i};
    expectBlocksMatchNetwork(shuffled);
}

TEST(Presort, TiedKeysKeepTheNetworksValueOrder)
{
    // Two keys and distinct values: the network leaves ties in an
    // order a stable sort does not, so only the same network passes.
    SplitMix64 rng(7);
    std::vector<Record> recs(16 * 256);
    for (std::size_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{rng.nextBounded(2), rng.next()};
    expectBlocksMatchNetwork(recs);

    std::vector<Record> stable(recs.begin(), recs.begin() + 16);
    std::stable_sort(stable.begin(), stable.end());
    const auto network =
        networkSorted(std::span<const Record>(recs.data(), 16));
    EXPECT_NE(std::memcmp(stable.data(), network.data(), 16 * 16), 0);
}

/** Runs of @p lengths records that are not 16-record Record blocks
 *  write what hw::bitonicSortNetwork writes (std::sort on a run that
 *  is not a power of two): the fallback copies and calls it, and a
 *  16-record gensort run runs its sequence on key tags. */
template <typename RecordT>
void
expectFallbackMatches(const std::vector<RecordT> &input,
                      std::initializer_list<std::size_t> lengths)
{
    for (const std::size_t n : lengths) {
        SCOPED_TRACE(::testing::Message() << "n=" << n);
        const std::span<const RecordT> block(input.data(), n);
        std::vector<RecordT> out(n);
        sorter::presortBlock(block.data(), out.data(), n);
        expectSameBytes<RecordT>(out, networkSorted(block));
    }
    std::vector<RecordT> tail(input.begin(), input.begin() + 11);
    std::vector<RecordT> want = tail;
    std::sort(want.begin(), want.end());
    sorter::presortBlock(tail.data(), tail.data(), tail.size());
    expectSameBytes<RecordT>(tail, want);
}

TEST(Presort, OtherRecordTypesAndLengthsTakeTheNetwork)
{
    expectFallbackMatches(makeRecords(64, Distribution::FewDistinct, 3),
                          {2, 8, 32, 64});
    std::vector<Record128> wide;
    for (const Record &r : makeRecords(64, Distribution::FewDistinct, 4))
        wide.push_back(Record128{r.key, 0, r.value});
    expectFallbackMatches(wide, {2, 8, 16, 32, 64});
    GensortGenerator gen(5);
    std::vector<GensortRecord> gensort = gen.generate(0, 64);
    for (std::size_t i = 0; i < gensort.size(); ++i)
        gensort[i].bytes[0] = static_cast<std::uint8_t>(i % 3);
    expectFallbackMatches(gensort, {2, 8, 16, 32, 64});
}

TEST(Presort, GensortRunsOfSixteenSortTheirTags)
{
    // Keys that tie in bytes 0-7 (the tags' prefixes tie, so the
    // records decide), in all ten bytes, and in none: the tag network
    // must swap exactly the pairs the record network swaps, in place
    // and out of place.
    SplitMix64 rng(17);
    std::vector<GensortRecord> recs = GensortGenerator(6).generate(0, 16 * 96);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i < 16 * 64)
            std::fill_n(recs[i].bytes.data(), 8, std::uint8_t{0x42});
        if (i < 16 * 32)
            recs[i].bytes[8] = recs[i].bytes[9] =
                static_cast<std::uint8_t>(rng.nextBounded(2));
    }
    for (std::size_t lo = 0; lo < recs.size(); lo += 16) {
        SCOPED_TRACE(::testing::Message() << "block at " << lo);
        const std::span<const GensortRecord> block(recs.data() + lo, 16);
        const std::vector<GensortRecord> want = networkSorted(block);
        std::vector<GensortRecord> out(16);
        sorter::presortBlock(block.data(), out.data(), 16);
        expectSameBytes<GensortRecord>(out, want);
        std::vector<GensortRecord> in_place(block.begin(), block.end());
        sorter::presortBlock(in_place.data(), in_place.data(), 16);
        expectSameBytes<GensortRecord>(in_place, want);
    }
}

TEST(Presort, RunsMatchPerBlockNetworkAtAnyWidthAndPlacement)
{
    const auto input =
        makeRecords(16 * 5000 + 11, Distribution::FewDistinct, 9);
    for (const std::uint64_t run : {1u, 8u, 16u, 32u}) {
        std::vector<Record> want = input;
        for (std::size_t lo = 0; lo < want.size(); lo += run) {
            const std::span<Record> block(
                want.data() + lo,
                std::min<std::uint64_t>(run, want.size() - lo));
            if (hw::isPow2(block.size()))
                hw::bitonicSortNetwork(block);
            else
                std::sort(block.begin(), block.end());
        }
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(::testing::Message()
                         << "run=" << run << " threads=" << threads);
            ThreadPool pool(threads);
            std::vector<Record> in_place = input;
            sorter::presortRuns<Record>(in_place, in_place, run, pool);
            expectSameBytes<Record>(in_place, want);
            std::vector<Record> out(input.size());
            sorter::presortRuns<Record>(input, out, run, pool);
            expectSameBytes<Record>(out, want);
        }
    }
}

} // namespace
} // namespace bonsai
