/**
 * @file
 * Tests for MergeTree's 2-way merge steps over Records.  The 8-record
 * AVX-512F step runs while both sides hold 8 records and the output
 * has room for 8, and its padded form while drained sides hold any
 * records and 8 between them.  The reference is the one-item step
 * (mergeSteps) while both sides hold records, then the side that is
 * left; each 8-item form, with the reference finishing the rest, must
 * write exactly what the reference writes and leave both heads where
 * it leaves them, for every pair of child lengths up to 40 and every
 * output room up to 40, on tie-heavy keys, keys on both sides of 2^63
 * and the largest key, before which the padded step stops.  Each
 * record's value names its side and position, so a tie resolved the
 * other way shows.  Whole Record trees, which take the 8-record step
 * wherever the CPU has it, must write the stable (key, input,
 * position) order.  The same 8-item step
 * over KeyEntry items, which compares the key word and the 16-bit key
 * tail but never the index, must match the one-item step on keys that
 * tie in the key word, in the tail or in both, with indexes naming
 * each entry's side and position.  A tree's root fills every output
 * chunk to its end, whatever the chunk's length mod 8.
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

/** The reference 2-way merge: @p n outputs from the heads at @p lp and
 *  @p rp, bounded by @p lend and @p rend — the one-item step
 *  (sorter::mergeSteps) while both sides hold items, then the side
 *  that is left. */
template <typename T>
T *
scalarSteps(const T *&lp, const T *lend, const T *&rp, const T *rend,
            T *out, std::size_t n)
{
    for (;;) {
        const std::size_t both =
            std::min({n, static_cast<std::size_t>(lend - lp),
                      static_cast<std::size_t>(rend - rp)});
        if (both == 0)
            break;
        out = sorter::mergeSteps(lp, rp, out, both);
        n -= both;
    }
    const T *&rest = lp == lend ? rp : lp;
    const std::size_t tail =
        std::min(n, static_cast<std::size_t>((lp == lend ? rend : lend) -
                                             rest));
    out = std::copy(rest, rest + tail, out);
    rest += tail;
    return out;
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

#if BONSAI_AVX512
/**
 * Run the 8-item step over all of @p left and @p right into @p room
 * slots — padded, with both sides drained, when @p kPadded — finish
 * with the reference, and check the bytes, the heads and where the
 * step stopped.  @p has_max_key: the items may hold the largest key,
 * the one case a padded step stops to avoid taking a pad.
 */
template <typename T, bool kPadded>
void
checkEightWide(const std::vector<T> &left, const std::vector<T> &right,
               std::size_t room, bool has_max_key)
{
    const T *const lend = left.data() + left.size();
    const T *const rend = right.data() + right.size();
    const std::ptrdiff_t least = kPadded ? 1 : 8;
    std::vector<T> got(room);
    const T *gl = left.data();
    const T *gr = right.data();
    T *out = sorter::mergeSteps8Avx512<T, kPadded>(
        gl, lend, gr, rend, got.data(), got.data() + room, least, least);
    const auto n = static_cast<std::size_t>(out - got.data());
    ASSERT_EQ(n % 8, 0u);
    // It stops only once a side holds fewer than its minimum or the
    // output fewer than 8 slots; padded, also once the sides hold
    // fewer than 8 between them, or before it would take a pad.
    const std::ptrdiff_t lc = lend - gl;
    const std::ptrdiff_t rc = rend - gr;
    EXPECT_TRUE(lc < least || rc < least || room - n < 8 ||
                (kPadded && (lc + rc < 8 || has_max_key)));
    // Then the reference finishes what is left.
    const std::size_t m = std::min(room, left.size() + right.size());
    ASSERT_LE(n, m);
    scalarSteps(gl, lend, gr, rend, out, m - n);

    std::vector<T> want(m);
    const T *wl = left.data();
    const T *wr = right.data();
    scalarSteps(wl, lend, wr, rend, want.data(), m);
    got.resize(m);
    ASSERT_TRUE(m == 0 ||
                std::memcmp(got.data(), want.data(), m * sizeof(T)) == 0);
    ASSERT_EQ(gl, wl);
    ASSERT_EQ(gr, wr);
}
#endif

TEST(MergeTreeStep, EightWideStepMatchesTheScalarStep)
{
#if BONSAI_AVX512
    if (!haveAvx512f())
        GTEST_SKIP() << "this CPU has no AVX-512F";
    std::mt19937_64 rng(7);
    for (const KeySet &set : kKeySets) {
        const bool has_max_key = set.keys.back() == ~std::uint64_t{0};
        for (std::size_t nl = 0; nl <= 40; ++nl) {
            for (std::size_t nr = 0; nr <= 40; ++nr) {
                const auto left = sortedRun(nl, set, 0, rng);
                const auto right = sortedRun(nr, set, 1, rng);
                for (std::size_t room = 0; room <= 40; ++room) {
                    SCOPED_TRACE(::testing::Message()
                                 << set.name << " left=" << nl
                                 << " right=" << nr << " room=" << room);
                    checkEightWide<Record, false>(left, right, room,
                                                  has_max_key);
                    checkEightWide<Record, true>(left, right, room,
                                                 has_max_key);
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
        const bool has_max_key = set.words.back() == ~std::uint64_t{0} &&
            set.tails.back() == 0xFFFF;
        for (std::size_t nl = 0; nl <= 40; ++nl) {
            for (std::size_t nr = 0; nr <= 40; ++nr) {
                const auto left = sortedEntries(nl, set, 0, rng);
                const auto right = sortedEntries(nr, set, 1, rng);
                for (std::size_t room = 0; room <= 40; ++room) {
                    SCOPED_TRACE(::testing::Message()
                                 << set.name << " left=" << nl
                                 << " right=" << nr << " room=" << room);
                    checkEightWide<KeyEntry, false>(left, right, room,
                                                    has_max_key);
                    checkEightWide<KeyEntry, true>(left, right, room,
                                                   has_max_key);
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

/** @p tree's output taken @p chunk items at a time; every fill but the
 *  last must end at its chunk's end. */
template <typename T>
std::vector<T>
chunkedFill(sorter::MergeTree<T> &tree, std::size_t chunk)
{
    std::vector<T> out;
    std::vector<T> buf(chunk);
    for (;;) {
        T *const last = tree.fill(buf.data(), buf.data() + chunk);
        out.insert(out.end(), buf.data(), last);
        if (last != buf.data() + chunk)
            return out;
    }
}

TEST(MergeTreeStep, RootFillsEveryChunkToItsEnd)
{
    // The root writes exactly the items a fill asks for, so its last
    // 0-7 items of every chunk take the one-item step; chunks of 1 to
    // 17 items end it at every length mod 8.
    std::mt19937_64 rng(23);
    SplitMix64 entry_rng(29);
    for (const std::size_t ell : {2, 3, 4, 16}) {
        std::vector<std::vector<Record>> runs;
        std::vector<std::vector<KeyEntry>> entries;
        for (std::size_t i = 0; i < ell; ++i) {
            runs.push_back(sortedRun(20 + (i * 17) % 41, kKeySets[1], i, rng));
            entries.push_back(
                sortedEntries(20 + (i * 23) % 41, kEntryKeySets[2], i,
                              entry_rng));
        }
        const std::vector<std::span<const Record>> inputs(runs.begin(),
                                                          runs.end());
        const std::vector<std::span<const KeyEntry>> entry_inputs(
            entries.begin(), entries.end());
        // The inputs concatenated in input order, then sorted stably.
        std::vector<Record> want;
        for (const auto &run : runs)
            want.insert(want.end(), run.begin(), run.end());
        std::stable_sort(want.begin(), want.end());
        std::vector<KeyEntry> want_entries;
        for (const auto &run : entries)
            want_entries.insert(want_entries.end(), run.begin(), run.end());
        std::stable_sort(want_entries.begin(), want_entries.end());
        for (std::size_t chunk = 1; chunk <= 17; ++chunk) {
            SCOPED_TRACE(::testing::Message()
                         << "ell=" << ell << " chunk=" << chunk);
            sorter::MergeTree<Record> tree(inputs);
            expectSameBytes(chunkedFill(tree, chunk), want);
            sorter::MergeTree<KeyEntry> entry_tree(entry_inputs);
            ASSERT_TRUE(
                sameEntries(chunkedFill(entry_tree, chunk), want_entries));
        }
    }
}

} // namespace
} // namespace bonsai
