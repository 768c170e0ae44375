/**
 * @file
 * Tests for MergeTree's 2-way merge steps over Records.  The 8-record
 * AVX-512F step, followed by the one-record step for the last n mod 8
 * steps, must write exactly what the one-record step writes and leave
 * both heads where it leaves them, for every pair of child lengths up
 * to 40 and every n up to the shorter one, on tie-heavy keys and keys
 * on both sides of 2^63.  Each record's value names its side and
 * position, so a tie resolved the other way shows.  Whole Record
 * trees, which take the 8-record step wherever the CPU has it, must
 * write the stable (key, input, position) order.  The same 8-item step
 * over KeyEntry items, which compares the key word and the 16-bit key
 * tail but never the index, must match the one-item step on keys that
 * tie in the key word, in the tail or in both, with indexes naming
 * each entry's side and position.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <span>
#include <vector>

#include "common/cpu.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "sorter/merge_tree.hpp"

namespace bonsai
{
namespace
{

/** Keys drawn from a small set, so ties are common. */
struct KeySet
{
    const char *name;
    std::vector<std::uint64_t> keys;
};

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

const KeySet kKeySets[] = {
    {"all-equal", {42}},
    {"three-keys", {1, 2, 3}},
    {"around-2^63", {0, kSignBit - 1, kSignBit, kSignBit + 1}},
    {"max-key", {0, ~std::uint64_t{0} - 1, ~std::uint64_t{0}}},
};

/** Input @p input's @p n records, sorted by key, each value naming the
 *  record's input and position. */
std::vector<Record>
sortedRun(std::size_t n, const KeySet &set, std::uint64_t input,
          std::mt19937_64 &rng)
{
    std::vector<Record> run(n);
    for (Record &r : run)
        r.key = set.keys[rng() % set.keys.size()];
    std::sort(run.begin(), run.end());
    for (std::size_t i = 0; i < n; ++i)
        run[i].value = input << 32 | i;
    return run;
}

void
expectSameBytes(std::span<const Record> got, std::span<const Record> want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(Record)), 0)
            << "record " << i << " of " << got.size();
    }
}

TEST(MergeTreeStep, EightWideStepMatchesTheScalarStep)
{
#if BONSAI_AVX512
    if (!haveAvx512f())
        GTEST_SKIP() << "this CPU has no AVX-512F";
    std::mt19937_64 rng(7);
    for (const KeySet &set : kKeySets) {
        for (std::size_t nl = 0; nl <= 40; ++nl) {
            for (std::size_t nr = 0; nr <= 40; ++nr) {
                const auto left = sortedRun(nl, set, 0, rng);
                const auto right = sortedRun(nr, set, 1, rng);
                for (std::size_t n = 0; n <= std::min(nl, nr); ++n) {
                    SCOPED_TRACE(::testing::Message()
                                 << set.name << " left=" << nl
                                 << " right=" << nr << " n=" << n);
                    std::vector<Record> want(n);
                    const Record *wl = left.data();
                    const Record *wr = right.data();
                    sorter::mergeSteps(wl, wr, want.data(), n);

                    std::vector<Record> got(n);
                    const Record *gl = left.data();
                    const Record *gr = right.data();
                    Record *out =
                        sorter::mergeSteps8Avx512(gl, gr, got.data(), n);
                    ASSERT_EQ(out, got.data() + n / 8 * 8);
                    sorter::mergeSteps(gl, gr, out, n % 8);

                    expectSameBytes(got, want);
                    EXPECT_EQ(gl, wl);
                    EXPECT_EQ(gr, wr);
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
#else
    GTEST_SKIP() << "AVX-512F code is not compiled for this target";
#endif
}

bool
sameEntries(const std::vector<KeyEntry> &a, const std::vector<KeyEntry> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(KeyEntry)) == 0);
}

/** Entry keys: key words and key tails drawn from small sets. */
struct EntryKeySet
{
    const char *name;
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> tails;
};

const EntryKeySet kEntryKeySets[] = {
    // Bytes 0-7 tie everywhere; bytes 8-9 decide, with some ties.
    {"tail-only", {0x5A5A5A5A5A5A5A5AULL}, {0, 1, 2, 0x7FFF, 0x8000, 0xFFFF}},
    {"all-equal", {42}, {7}},
    // Words and tails both tie, on both sides of 2^63 and 2^15.
    {"both", {1, kSignBit, ~std::uint64_t{0}}, {0, 0x8000, 0xFFFF}},
};

/** Input @p input's @p n entries, sorted by key, each index naming the
 *  entry's input and position. */
std::vector<KeyEntry>
sortedEntries(std::size_t n, const EntryKeySet &set, std::uint64_t input,
              SplitMix64 &rng)
{
    std::vector<KeyEntry> run(n);
    for (KeyEntry &e : run) {
        e.key = set.words[rng.nextBounded(set.words.size())];
        e.tail = set.tails[rng.nextBounded(set.tails.size())]
            << KeyEntry::kIndexBits;
    }
    std::stable_sort(run.begin(), run.end());
    for (std::size_t i = 0; i < n; ++i)
        run[i].tail |= input << 40 | i;
    return run;
}

TEST(MergeTreeStep, EightWideEntryStepMatchesTheScalarStep)
{
#if BONSAI_AVX512
    if (!haveAvx512f())
        GTEST_SKIP() << "this CPU has no AVX-512F";
    SplitMix64 rng(17);
    for (const EntryKeySet &set : kEntryKeySets) {
        for (std::size_t nl = 0; nl <= 40; ++nl) {
            for (std::size_t nr = 0; nr <= 40; ++nr) {
                const auto left = sortedEntries(nl, set, 0, rng);
                const auto right = sortedEntries(nr, set, 1, rng);
                for (std::size_t n = 0; n <= std::min(nl, nr); ++n) {
                    SCOPED_TRACE(::testing::Message()
                                 << set.name << " left=" << nl
                                 << " right=" << nr << " n=" << n);
                    std::vector<KeyEntry> want(n);
                    const KeyEntry *wl = left.data();
                    const KeyEntry *wr = right.data();
                    sorter::mergeSteps(wl, wr, want.data(), n);

                    std::vector<KeyEntry> got(n);
                    const KeyEntry *gl = left.data();
                    const KeyEntry *gr = right.data();
                    KeyEntry *out =
                        sorter::mergeSteps8Avx512(gl, gr, got.data(), n);
                    ASSERT_EQ(out, got.data() + n / 8 * 8);
                    sorter::mergeSteps(gl, gr, out, n % 8);

                    ASSERT_TRUE(sameEntries(got, want));
                    ASSERT_EQ(gl, wl);
                    ASSERT_EQ(gr, wr);
                }
            }
        }
    }
#else
    GTEST_SKIP() << "AVX-512F code is not compiled for this target";
#endif
}

TEST(MergeTreeStep, EntryTreesWriteTheStableOrder)
{
    SplitMix64 rng(19);
    for (const EntryKeySet &set : kEntryKeySets) {
        for (const std::size_t ell : {2, 3, 16, 256}) {
            SCOPED_TRACE(::testing::Message()
                         << set.name << " ell=" << ell);
            std::vector<std::vector<KeyEntry>> runs;
            std::vector<KeyEntry> want;
            for (std::size_t i = 0; i < ell; ++i) {
                runs.push_back(
                    sortedEntries((i * 97 + 13) % 301, set, i, rng));
                want.insert(want.end(), runs.back().begin(),
                            runs.back().end());
            }
            std::stable_sort(want.begin(), want.end());
            const std::vector<std::span<const KeyEntry>> inputs(
                runs.begin(), runs.end());
            sorter::MergeTree<KeyEntry> tree(inputs);
            std::vector<KeyEntry> got(tree.size());
            tree.merge(got.data());
            ASSERT_TRUE(sameEntries(got, want));
        }
    }
}

TEST(MergeTreeStep, TwoWayTreeMatchesStdMerge)
{
    std::mt19937_64 rng(11);
    for (const KeySet &set : kKeySets) {
        for (std::size_t nl = 0; nl <= 40; ++nl) {
            for (std::size_t nr = 0; nr <= 40; ++nr) {
                SCOPED_TRACE(::testing::Message() << set.name << " left="
                                                  << nl << " right=" << nr);
                const std::vector<std::vector<Record>> runs = {
                    sortedRun(nl, set, 0, rng), sortedRun(nr, set, 1, rng)};
                // std::merge is stable: ties take the first range.
                std::vector<Record> want;
                std::merge(runs[0].begin(), runs[0].end(), runs[1].begin(),
                           runs[1].end(), std::back_inserter(want));
                const std::vector<std::span<const Record>> inputs(
                    runs.begin(), runs.end());
                sorter::MergeTree<Record> tree(inputs);
                std::vector<Record> got(tree.size());
                tree.merge(got.data());
                expectSameBytes(got, want);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

TEST(MergeTreeStep, RecordTreesWriteTheStableOrder)
{
    std::mt19937_64 rng(13);
    for (const KeySet &set : kKeySets) {
        for (const std::size_t ell : {2, 3, 16, 256}) {
            SCOPED_TRACE(::testing::Message()
                         << set.name << " ell=" << ell);
            std::vector<std::vector<Record>> runs;
            std::vector<Record> want;
            for (std::size_t i = 0; i < ell; ++i) {
                // Lengths from 0 to 300, so leaves drain at different
                // times and node blocks refill part-way.
                runs.push_back(sortedRun((i * 97 + 13) % 301, set, i, rng));
                want.insert(want.end(), runs.back().begin(),
                            runs.back().end());
            }
            // The inputs concatenated in input order, then sorted
            // stably: the (key, input, position) order.
            std::stable_sort(want.begin(), want.end());
            const std::vector<std::span<const Record>> inputs(runs.begin(),
                                                              runs.end());
            sorter::MergeTree<Record> tree(inputs);
            std::vector<Record> got(tree.size());
            tree.merge(got.data());
            expectSameBytes(got, want);
        }
    }
}

} // namespace
} // namespace bonsai
