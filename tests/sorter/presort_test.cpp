/**
 * @file
 * Differential tests for the presorter: every path through
 * sorter::presortBlock and sorter::presortRuns must write, byte for
 * byte, what std::stable_sort writes on the same run.  The register
 * network stores a run only when no two of its first words tie, and
 * otherwise writes nothing, so the fallback reads untouched input in
 * place and out of place.  The entry presort of gensort records must
 * write the entries std::stable_sort writes, whose records, gathered,
 * are each block of records stable-sorted.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <random>
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

/** The reference: std::stable_sort on a copy of @p block. */
template <typename RecordT>
std::vector<RecordT>
stableSorted(std::span<const RecordT> block)
{
    std::vector<RecordT> out(block.begin(), block.end());
    std::stable_sort(out.begin(), out.end());
    return out;
}

/** @p items, each run of @p run (the last may be shorter) sorted by
 *  std::stable_sort. */
template <typename RecordT>
std::vector<RecordT>
blockStableSorted(std::vector<RecordT> items, std::uint64_t run)
{
    for (std::size_t lo = 0; lo < items.size(); lo += run) {
        const auto hi = items.begin() +
            static_cast<std::ptrdiff_t>(
                std::min<std::uint64_t>(lo + run, items.size()));
        std::stable_sort(items.begin() + static_cast<std::ptrdiff_t>(lo),
                         hi);
    }
    return items;
}

/** Every path that sorts a 16-item run: the dispatching presortBlock
 *  in place and out of place, and, when this CPU runs it, the register
 *  network directly, which stores the sorted run when no two first
 *  words tie and otherwise writes nothing. */
template <typename T>
void
expectAllPathsStable(std::span<const T> block)
{
    ASSERT_EQ(block.size(), 16u);
    const std::vector<T> want = stableSorted(block);

    std::vector<T> out(16);
    sorter::presortBlock(block.data(), out.data(), 16);
    expectSameBytes<T>(out, want);

    std::vector<T> in_place(block.begin(), block.end());
    sorter::presortBlock(in_place.data(), in_place.data(), 16);
    expectSameBytes<T>(in_place, want);

#if BONSAI_AVX512
    if (haveAvx512f()) {
        bool tie = false;
        for (std::size_t i = 1; i < 16; ++i)
            tie |= want[i].key == want[i - 1].key;
        T untouched{};
        untouched.key = 0xEEEE'EEEE'EEEE'EEEE;
        std::vector<T> simd(16, untouched);
        EXPECT_EQ(sorter::bitonicSort16Avx512(block.data(), simd.data()),
                  !tie);
        if (tie)
            expectSameBytes<T>(simd, std::vector<T>(16, untouched));
        else
            expectSameBytes<T>(simd, want);
    }
#endif
}

/** Every whole 16-record block of @p recs, checked on every path. */
void
expectBlocksStable(const std::vector<Record> &recs)
{
    for (std::size_t lo = 0; lo + 16 <= recs.size(); lo += 16) {
        SCOPED_TRACE(::testing::Message() << "block at " << lo);
        expectAllPathsStable(std::span<const Record>(recs.data() + lo, 16));
    }
}

TEST(Presort, ZeroOneKeysExhaustive)
{
    // Every 0-1 key pattern, with distinct values so the order equal
    // keys leave in is visible: every run ties, so the register
    // network writes nothing and the run is sorted stably.  Then the
    // same patterns on the top bit above a distinct low word: no key
    // ties, so the register network stores its own order, and since a
    // comparator network commutes with the monotone map to the top
    // bit, sorting these proves by the 0-1 principle that it sorts
    // every input.
    std::vector<Record> block(16);
    for (unsigned bits = 0; bits < (1u << 16); ++bits) {
        SCOPED_TRACE(::testing::Message() << "bits=" << bits);
        for (unsigned i = 0; i < 16; ++i)
            block[i] = Record{(bits >> i) & 1u, 100 + i};
        expectAllPathsStable<Record>(block);
        for (unsigned i = 0; i < 16; ++i)
            block[i] = Record{std::uint64_t{(bits >> i) & 1u} << 63 | i,
                              100 + i};
        expectAllPathsStable<Record>(block);
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
        expectBlocksStable(makeRecords(16 * 512, dist, 5));
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
    expectBlocksStable(recs);
    std::vector<Record> shuffled(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i)
        shuffled[i] = Record{rng.next(), ~i};
    expectBlocksStable(shuffled);
    // Distinct keys straddling 2^63, which the register network
    // stores itself.
    for (std::size_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{(std::uint64_t{1} << 63) - 8 + i % 16 +
                             (rng.nextBounded(2) << 62),
                         i};
    for (std::size_t lo = 0; lo < recs.size(); lo += 16)
        std::shuffle(recs.begin() + static_cast<std::ptrdiff_t>(lo),
                     recs.begin() + static_cast<std::ptrdiff_t>(lo + 16),
                     std::mt19937_64(lo));
    expectBlocksStable(recs);
}

TEST(Presort, TiedKeysKeepTheNetworksValueOrder)
{
    // Two keys and distinct values: a stable presort leaves ties in
    // input order, where the bitonic network (hw::bitonicSortNetwork,
    // the simulator's presorter) leaves them in another, so a presort
    // that stored the network's order on a tie fails here.
    SplitMix64 rng(7);
    std::vector<Record> recs(16 * 256);
    for (std::size_t i = 0; i < recs.size(); ++i)
        recs[i] = Record{rng.nextBounded(2), rng.next()};
    expectBlocksStable(recs);

    const auto stable =
        stableSorted(std::span<const Record>(recs.data(), 16));
    std::vector<Record> network(recs.begin(), recs.begin() + 16);
    hw::bitonicSortNetwork(std::span<Record>(network));
    EXPECT_NE(std::memcmp(stable.data(), network.data(), 16 * 16), 0);
}

/** A tied 16-item run of @p T sorted in place and out of place: the
 *  register network finds the tie only after its stages, so the
 *  fallback must read input it left untouched. */
template <typename T>
void
expectTiedRunFallsBack(const std::vector<T> &run)
{
    const std::vector<T> want = stableSorted(std::span<const T>(run));
    std::vector<T> in_place = run;
    sorter::presortBlock(in_place.data(), in_place.data(), 16);
    expectSameBytes<T>(in_place, want);

    T stale{};
    stale.key = 0x5A5A'5A5A'5A5A'5A5A;
    std::vector<T> out(16, stale);
    sorter::presortBlock(run.data(), out.data(), 16);
    expectSameBytes<T>(out, want);
}

TEST(Presort, TiedRunsFallBackOnUntouchedInput)
{
    // One tie among otherwise distinct descending keys, so the network
    // moves every item before the tie check.
    std::vector<Record> recs(16);
    for (std::size_t i = 0; i < 16; ++i)
        recs[i] = Record{1000 - i, i};
    recs[15].key = recs[0].key;
    expectTiedRunFallsBack(recs);

    std::vector<KeyEntry> entries(16);
    for (std::size_t i = 0; i < 16; ++i)
        entries[i] = KeyEntry{1000 - i, (15 - i) << KeyEntry::kIndexBits | i};
    entries[9].key = entries[3].key; // tails 12 and 6 decide
    expectTiedRunFallsBack(entries);
}

/** Runs of @p lengths records that are not 16-item runs of Records or
 *  entries (and a short tail) take std::stable_sort. */
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
        expectSameBytes<RecordT>(out, stableSorted(block));
    }
    std::vector<RecordT> tail(input.begin(), input.begin() + 11);
    const std::vector<RecordT> want =
        stableSorted(std::span<const RecordT>(tail));
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

/** The records @p entries name in @p recs, in entry order. */
std::vector<GensortRecord>
gathered(std::span<const KeyEntry> entries,
         std::span<const GensortRecord> recs)
{
    std::vector<GensortRecord> out;
    for (const KeyEntry &e : entries)
        out.push_back(recs[e.index()]);
    return out;
}

TEST(Presort, GensortRunsOfSixteenSortTheirTags)
{
    // Keys that tie in bytes 0-7 (the entries' key words tie, so the
    // tails decide), in all ten bytes, and in none: the entry runs,
    // gathered, must be each 16-record block stable-sorted, for every
    // thread count and for the tail of a range that is not whole runs.
    SplitMix64 rng(17);
    std::vector<GensortRecord> recs =
        GensortGenerator(6).generate(0, 16 * 96 + 8);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i < 16 * 64)
            std::fill_n(recs[i].bytes.data(), 8, std::uint8_t{0x42});
        if (i < 16 * 32)
            recs[i].bytes[8] = recs[i].bytes[9] =
                static_cast<std::uint8_t>(rng.nextBounded(2));
    }
    for (const std::size_t n : {recs.size() - 1, recs.size()}) {
        const std::span<const GensortRecord> input(recs.data(), n);
        const std::vector<GensortRecord> want = blockStableSorted(
            std::vector<GensortRecord>(input.begin(), input.end()), 16);
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " threads=" << threads);
            ThreadPool pool(threads);
            std::vector<KeyEntry> entries(n);
            sorter::presortEntries(input, std::span<KeyEntry>(entries), 16,
                                   pool);
            expectSameBytes<GensortRecord>(gathered(entries, input), want);
        }
    }
}

/** Sixteen entries: key word i % @p words (so ties when words < 16),
 *  a tail of i % @p tails, and, after a shuffle, index i. */
std::vector<KeyEntry>
entryRun(std::size_t words, std::size_t tails, SplitMix64 &rng)
{
    std::vector<KeyEntry> run(16);
    const std::uint64_t base = rng.next() | std::uint64_t{1} << 63;
    for (std::size_t i = 0; i < 16; ++i) {
        run[i].key = base - (i * 7 + 3) % 16 % words;
        run[i].tail = ((i * 5 + 1) % 16 % tails) << KeyEntry::kIndexBits | i;
    }
    std::shuffle(run.begin(), run.end(), std::mt19937_64(rng.next()));
    for (std::size_t i = 0; i < 16; ++i)
        run[i].tail = (run[i].tail & ~KeyEntry::kMaxIndex) | i;
    return run;
}

TEST(Presort, EntryRunsMatchTheEntryNetworkWhateverTheirTies)
{
    // Runs of 16 entries whose key words all differ (the register
    // network's case), tie in pairs or in fours, or all tie, with
    // tails that differ, tie or are all equal: the entry presort must
    // write the run stable-sorted, indexes included, and the register
    // network must store that run exactly when the key words all
    // differ, and write nothing otherwise.
    SplitMix64 rng(23);
    for (const std::size_t words : {16u, 15u, 8u, 4u, 1u}) {
        for (const std::size_t tails : {16u, 3u, 1u}) {
            for (int rep = 0; rep < 50; ++rep) {
                SCOPED_TRACE(::testing::Message() << "words=" << words
                                                  << " tails=" << tails
                                                  << " rep=" << rep);
                const std::vector<KeyEntry> run = entryRun(words, tails, rng);
                const std::vector<KeyEntry> want =
                    stableSorted(std::span<const KeyEntry>(run));
                // Records whose entries are exactly the run's.
                std::vector<GensortRecord> recs(16);
                for (std::size_t i = 0; i < 16; ++i) {
                    const KeyEntry &e = run[i];
                    for (int b = 0; b < 8; ++b)
                        recs[i].bytes[b] =
                            static_cast<std::uint8_t>(e.key >> (56 - 8 * b));
                    recs[i].bytes[8] =
                        static_cast<std::uint8_t>(e.keyTail() >> 8);
                    recs[i].bytes[9] = static_cast<std::uint8_t>(e.keyTail());
                }
                std::vector<KeyEntry> got(16);
                sorter::presortEntryBlock(recs.data(), 0, got.data(), 16);
                expectSameBytes<KeyEntry>(got, want);
                expectAllPathsStable<KeyEntry>(run);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

TEST(Presort, RunsMatchPerBlockNetworkAtAnyWidthAndPlacement)
{
    // Each run of 1, 8, 16 and 32 records, and the 11-record tail,
    // stable-sorted, in place and into another buffer.
    const auto input =
        makeRecords(16 * 5000 + 11, Distribution::FewDistinct, 9);
    for (const std::uint64_t run : {1u, 8u, 16u, 32u}) {
        const std::vector<Record> want = blockStableSorted(input, run);
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
