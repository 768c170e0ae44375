/**
 * @file
 * Differential tests for the merge kernel: MergeTree must write, byte
 * for byte, the sequence the reference loser tree (tournament.hpp)
 * pops over the same inputs — the (key, input index, position) order
 * — for every fan-in, member shape, key distribution (prefix ties
 * included) and record width, and Merge Path slices of it must
 * concatenate to the whole merge.  Trees of the key entries of
 * gensort runs must write, once gathered, what trees of the records
 * write, trees that borrow one arena for their node blocks must write
 * what trees that own them write, and trees whose leaves stream
 * batches from RunCursors over a memory or file store must write what
 * the in-memory merge writes, at every batch size and every transfer
 * of k batches.  Record and key-entry trees, in memory and streamed,
 * must match the reference at every tail length a node block is
 * topped up at, and when a block stops with 1-7 slots free while its
 * children still hold items.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/gensort.hpp"
#include "common/random.hpp"
#include "common/record.hpp"
#include "common/record_buffer.hpp"
#include "common/run.hpp"
#include "io/buffer_pool.hpp"
#include "io/run_store.hpp"
#include "sorter/merge_path.hpp"
#include "sorter/merge_tree.hpp"
#include "sorter/run_cursor.hpp"
#include "tournament.hpp"

namespace bonsai
{
namespace
{

/** TournamentTree's view of in-memory spans, each limited to a
 *  [begin, end) range. */
template <typename RecordT>
class SpanCursors
{
  public:
    SpanCursors(std::span<const std::span<const RecordT>> inputs,
                const std::vector<std::uint64_t> &begin,
                const std::vector<std::uint64_t> &end)
        : inputs_(inputs.begin(), inputs.end())
    {
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            pos_.push_back(begin.empty() ? 0 : begin[i]);
            end_.push_back(end.empty() ? inputs_[i].size() : end[i]);
        }
    }

    std::size_t size() const { return inputs_.size(); }
    bool exhausted(std::size_t i) const { return pos_[i] >= end_[i]; }
    const RecordT &head(std::size_t i) const
    {
        return inputs_[i][pos_[i]];
    }
    void advance(std::size_t i) { ++pos_[i]; }

  private:
    std::vector<std::span<const RecordT>> inputs_;
    std::vector<std::uint64_t> pos_;
    std::vector<std::uint64_t> end_;
};

template <typename RecordT>
using Runs = std::vector<std::vector<RecordT>>;

template <typename RecordT>
std::vector<std::span<const RecordT>>
spansOf(const Runs<RecordT> &runs)
{
    return {runs.begin(), runs.end()};
}

template <typename RecordT>
std::vector<RecordT>
tournamentMerge(const Runs<RecordT> &runs,
                const std::vector<std::uint64_t> &begin = {},
                const std::vector<std::uint64_t> &end = {})
{
    const auto spans = spansOf(runs);
    SpanCursors<RecordT> cursors(spans, begin, end);
    sorter::TournamentTree<RecordT, SpanCursors<RecordT>> tree(cursors);
    std::vector<RecordT> out;
    while (!tree.done())
        out.push_back(tree.pop());
    return out;
}

template <typename RecordT>
std::vector<RecordT>
treeMerge(const Runs<RecordT> &runs,
          const std::vector<std::uint64_t> &begin = {},
          const std::vector<std::uint64_t> &end = {},
          RecordBuffer<RecordT> *arena = nullptr)
{
    const auto spans = spansOf(runs);
    sorter::MergeTree<RecordT> tree(spans, begin, end, arena);
    std::vector<RecordT> out(tree.size());
    EXPECT_EQ(tree.merge(out.data()), out.data() + out.size());
    return out;
}

/**
 * Lay @p runs end to end in @p store and merge them through a streamed
 * tree whose leaves are RunCursors reading @p slots batches of
 * @p batch records at a time, filling output buffers of the same size
 * — the shape of a phase-2 merge group.
 */
template <typename RecordT>
std::vector<RecordT>
streamedMerge(const Runs<RecordT> &runs, io::RunStore<RecordT> &store,
              std::uint64_t batch, std::uint64_t slots = 1)
{
    io::BufferPool<RecordT> pool(batch, (runs.size() + 1) * slots *
                                            batch * sizeof(RecordT));
    std::vector<sorter::RunCursor<RecordT>> cursors;
    std::uint64_t offset = 0;
    for (const auto &run : runs) {
        if (!run.empty())
            store.writeAt(offset, run.data(), run.size());
        cursors.emplace_back(store, RunSpan{offset, run.size()}, pool,
                             slots);
        offset += run.size();
    }
    io::PoolLease<RecordT> out_batch(pool, slots);
    sorter::MergeTree<RecordT> tree(
        runs.size(),
        [&cursors](std::size_t i) { return cursors[i].next(); });
    std::vector<RecordT> out;
    RecordT *const first = out_batch.data();
    RecordT *const end = first + out_batch.capacity();
    for (RecordT *last = tree.fill(first, end); last != first;
         last = tree.fill(first, end))
        out.insert(out.end(), first, last);
    EXPECT_EQ(out_batch.capacity(), slots * batch);
    EXPECT_EQ(pool.outstanding(), (runs.size() + 1) * slots);
    return out;
}

template <typename RecordT>
void
expectSameBytes(const std::vector<RecordT> &got,
                const std::vector<RecordT> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(RecordT)), 0)
            << "record " << i << " of " << got.size();
    }
}

/** @p r as a RecordT: same key order, value carried in the payload,
 *  so equal keys with different values expose any tie reordering. */
template <typename RecordT>
RecordT convert(const Record &r);

template <>
Record
convert<Record>(const Record &r)
{
    return r;
}

template <>
Record128
convert<Record128>(const Record &r)
{
    return Record128{r.key, r.key * 0x9e3779b97f4a7c15ULL, r.value};
}

template <>
GensortRecord
convert<GensortRecord>(const Record &r)
{
    GensortRecord g;
    for (int b = 0; b < 8; ++b) // big-endian: byte order == key order
        g.bytes[b] = static_cast<std::uint8_t>(r.key >> (56 - 8 * b));
    g.bytes[8] = g.bytes[9] = 0x5a;
    std::memcpy(g.bytes.data() + GensortRecord::kKeyBytes, &r.value,
                sizeof r.value);
    return g;
}

/** @p r as a RecordT whose leading key word ties with every other
 *  such record: only 4096 key values survive, in the trailing key
 *  bytes (bytes 8-9 of a gensort key, keyLo of a Record128), so a
 *  merge decides every comparison on them. */
template <typename RecordT>
RecordT prefixTie(const Record &r);

template <>
Record
prefixTie<Record>(const Record &r)
{
    return Record{1 + r.key % 4096, r.value};
}

template <>
Record128
prefixTie<Record128>(const Record &r)
{
    return Record128{0xA5A5A5A5A5A5A5A5ULL, r.key % 4096, r.value};
}

template <>
GensortRecord
prefixTie<GensortRecord>(const Record &r)
{
    GensortRecord g = convert<GensortRecord>(r);
    const std::uint64_t tail = r.key % 4096;
    for (int b = 0; b < 8; ++b)
        g.bytes[b] = 0xA5;
    g.bytes[8] = static_cast<std::uint8_t>(tail >> 8);
    g.bytes[9] = static_cast<std::uint8_t>(tail);
    return g;
}

/** A key distribution, optionally cut down to prefix ties. */
struct KeySet
{
    Distribution dist;
    bool prefixTie = false;
    const char *name;
};

/** One sorted member of @p n records. */
template <typename RecordT>
std::vector<RecordT>
sortedRun(std::size_t n, KeySet keys, std::uint64_t seed)
{
    std::vector<RecordT> run;
    for (const Record &r : makeRecords(n, keys.dist, seed)) {
        run.push_back(keys.prefixTie ? prefixTie<RecordT>(r)
                                     : convert<RecordT>(r));
    }
    std::stable_sort(run.begin(), run.end());
    return run;
}

/** @p ways members whose lengths follow @p length(i). */
template <typename RecordT, typename Length>
Runs<RecordT>
makeRuns(std::size_t ways, KeySet keys, Length &&length)
{
    Runs<RecordT> runs;
    for (std::size_t i = 0; i < ways; ++i)
        runs.push_back(sortedRun<RecordT>(length(i), keys, 1000 + i));
    return runs;
}

constexpr KeySet kKeySets[] = {
    {Distribution::UniformRandom, false, "uniform"},
    {Distribution::AllEqual, false, "all-equal"},
    {Distribution::FewDistinct, false, "few-distinct"},
    {Distribution::UniformRandom, true, "prefix-tie"},
};
constexpr std::size_t kFanIns[] = {1, 2, 3, 5, 16, 128, 256};

template <typename RecordT>
class MergeTreeTyped : public ::testing::Test
{
};

using RecordTypes = ::testing::Types<Record, Record128, GensortRecord>;
TYPED_TEST_SUITE(MergeTreeTyped, RecordTypes);

TYPED_TEST(MergeTreeTyped, MatchesTournamentTree)
{
    for (const KeySet keys : kKeySets) {
        for (const std::size_t ways : kFanIns) {
            const auto runs = makeRuns<TypeParam>(
                ways, keys, [](std::size_t i) { return 40 + i * 7 % 23; });
            SCOPED_TRACE(::testing::Message()
                         << "keys=" << keys.name
                         << " ways=" << ways);
            expectSameBytes(treeMerge(runs), tournamentMerge(runs));
        }
    }
}

TYPED_TEST(MergeTreeTyped, EmptyAndSkewedMembers)
{
    for (const KeySet keys : kKeySets) {
        for (const std::size_t ways : kFanIns) {
            // Every third member empty, one member far longer than
            // the rest, a few single records.
            const auto runs =
                makeRuns<TypeParam>(ways, keys, [](std::size_t i) {
                    if (i % 3 == 1)
                        return std::size_t{0};
                    return i == 2 ? std::size_t{3000} : i % 4;
                });
            SCOPED_TRACE(::testing::Message()
                         << "keys=" << keys.name
                         << " ways=" << ways);
            expectSameBytes(treeMerge(runs), tournamentMerge(runs));
        }
    }
    const Runs<TypeParam> all_empty(5);
    EXPECT_TRUE(treeMerge(all_empty).empty());
    EXPECT_TRUE(treeMerge(Runs<TypeParam>{}).empty());
}

TYPED_TEST(MergeTreeTyped, SlicesConcatenateToTheWholeMerge)
{
    for (const KeySet keys : kKeySets) {
        for (const std::size_t ways : kFanIns) {
            const auto runs = makeRuns<TypeParam>(
                ways, keys, [](std::size_t i) { return 60 + i * 13 % 41; });
            const auto whole = treeMerge(runs);
            const sorter::MergePath<TypeParam> path(spansOf(runs));
            for (const unsigned parts : {2u, 3u, 7u}) {
                const auto bounds = path.partition(parts);
                std::vector<TypeParam> sliced;
                for (unsigned t = 0; t < parts; ++t) {
                    const auto slice =
                        treeMerge(runs, bounds[t], bounds[t + 1]);
                    expectSameBytes(slice, tournamentMerge(runs, bounds[t],
                                                           bounds[t + 1]));
                    sliced.insert(sliced.end(), slice.begin(),
                                  slice.end());
                }
                SCOPED_TRACE(::testing::Message()
                             << "keys=" << keys.name
                             << " ways=" << ways << " parts=" << parts);
                expectSameBytes(sliced, whole);
            }
        }
    }
}

TYPED_TEST(MergeTreeTyped, StreamedLeavesMatchTheInMemoryMerge)
{
    for (const KeySet keys : kKeySets) {
        for (const std::size_t ways : {1u, 2u, 3u, 5u, 64u}) {
            // Every fourth member empty, one far longer than the rest.
            const auto runs =
                makeRuns<TypeParam>(ways, keys, [](std::size_t i) {
                    if (i % 4 == 1)
                        return std::size_t{0};
                    return i == 2 ? std::size_t{300} : 30 + i * 7 % 23;
                });
            const auto want = tournamentMerge(runs);
            std::uint64_t total = 0;
            for (const auto &run : runs)
                total += run.size();
            for (const std::uint64_t batch : {1u, 2u, 3u, 40u}) {
                SCOPED_TRACE(::testing::Message()
                             << "keys=" << keys.name
                             << " ways=" << ways << " batch=" << batch);
                std::vector<TypeParam> backing(total);
                io::MemoryRunStore<TypeParam> memory{
                    std::span<TypeParam>(backing)};
                expectSameBytes(streamedMerge(runs, memory, batch), want);
                io::FileRunStore<TypeParam> file;
                expectSameBytes(streamedMerge(runs, file, batch), want);
            }
        }
    }
}

TYPED_TEST(MergeTreeTyped, StreamedLeavesMatchAtEveryTransfer)
{
    // Phase 2 leases k slots per cursor and writer, k per pass: the
    // bytes must not depend on k.  Batch 3 with k in {1, 2, 3, 16}
    // reads 3, 6, 9 and 48 records at a time, so refills land at
    // different points of every run and most runs end short.
    for (const KeySet keys : kKeySets) {
        for (const std::size_t ways : {1u, 2u, 3u, 5u, 64u}) {
            // Every fourth member empty, one far longer than the rest.
            const auto runs =
                makeRuns<TypeParam>(ways, keys, [](std::size_t i) {
                    if (i % 4 == 1)
                        return std::size_t{0};
                    return i == 2 ? std::size_t{300} : 30 + i * 7 % 23;
                });
            const auto want = tournamentMerge(runs);
            std::uint64_t total = 0;
            for (const auto &run : runs)
                total += run.size();
            for (const std::uint64_t k : {1u, 2u, 3u, 16u}) {
                SCOPED_TRACE(::testing::Message()
                             << "keys=" << keys.name
                             << " ways=" << ways << " k=" << k);
                std::vector<TypeParam> backing(total);
                io::MemoryRunStore<TypeParam> memory{
                    std::span<TypeParam>(backing)};
                expectSameBytes(streamedMerge(runs, memory, 3, k), want);
                io::FileRunStore<TypeParam> file;
                expectSameBytes(streamedMerge(runs, file, 3, k), want);
            }
        }
    }
}

TYPED_TEST(MergeTreeTyped, BlocksAreTwoKibibytesButAtLeast32Records)
{
    constexpr std::size_t want =
        std::max<std::size_t>(32, 2048 / sizeof(TypeParam));
    EXPECT_EQ(sorter::MergeTree<TypeParam>::kBlockRecords, want);
    EXPECT_EQ(sorter::MergeTree<Record>::kBlockRecords, 128u);
    EXPECT_EQ(sorter::MergeTree<Record128>::kBlockRecords, 85u);
    // Gensort records sort in memory as 16-byte entries; a tree of
    // the records themselves holds 32 a block.
    EXPECT_EQ(sorter::MergeTree<KeyEntry>::kBlockRecords, 128u);
    EXPECT_EQ(sorter::MergeTree<GensortRecord>::kBlockRecords, 32u);
}

TYPED_TEST(MergeTreeTyped, TreesSharingAnArenaMatchTreesOwningBlocks)
{
    // Trees built in turn on one arena — wide, narrow, then wider, so
    // the arena both shrinks in use and regrows — write the bytes of
    // trees that own their blocks.
    RecordBuffer<TypeParam> arena;
    for (const KeySet keys : kKeySets) {
        for (const std::size_t ways : {128u, 5u, 256u, 2u, 16u}) {
            const auto runs = makeRuns<TypeParam>(
                ways, keys, [](std::size_t i) { return 90 + i * 11 % 37; });
            SCOPED_TRACE(::testing::Message()
                         << "keys=" << keys.name
                         << " ways=" << ways);
            const auto owned = treeMerge(runs);
            expectSameBytes(treeMerge(runs, {}, {}, &arena), owned);
            const sorter::MergePath<TypeParam> path(spansOf(runs));
            const auto bounds = path.partition(3);
            std::vector<TypeParam> sliced;
            for (unsigned t = 0; t < 3; ++t) {
                const auto slice =
                    treeMerge(runs, bounds[t], bounds[t + 1], &arena);
                sliced.insert(sliced.end(), slice.begin(), slice.end());
            }
            expectSameBytes(sliced, owned);
        }
    }
}

/** The key entries of @p runs laid end to end, record i of the
 *  concatenation named by index i. */
Runs<KeyEntry>
entriesOf(const Runs<GensortRecord> &runs)
{
    Runs<KeyEntry> entries;
    std::uint64_t index = 0;
    for (const auto &run : runs) {
        entries.emplace_back();
        for (const GensortRecord &r : run)
            entries.back().push_back(keyEntry(r, index++));
    }
    return entries;
}

/** The records @p entries name, in entry order. */
std::vector<GensortRecord>
gather(const std::vector<KeyEntry> &entries,
       const Runs<GensortRecord> &runs)
{
    std::vector<GensortRecord> all;
    for (const auto &run : runs)
        all.insert(all.end(), run.begin(), run.end());
    std::vector<GensortRecord> out;
    for (const KeyEntry &e : entries)
        out.push_back(all[e.index()]);
    return out;
}

TEST(MergeTreeEntries, EntryTreesMatchRecordTrees)
{
    // Entries order as their records do and never on their index, so
    // a tree of entries, whole or cut into Merge Path slices, makes
    // every decision a tree of the records makes.
    for (const KeySet keys : kKeySets) {
        for (const std::size_t ways : kFanIns) {
            const auto runs = makeRuns<GensortRecord>(
                ways, keys, [](std::size_t i) { return 50 + i * 9 % 31; });
            const auto entries = entriesOf(runs);
            SCOPED_TRACE(::testing::Message()
                         << "keys=" << keys.name << " ways=" << ways);
            expectSameBytes(gather(treeMerge(entries), runs),
                            treeMerge(runs));
            const sorter::MergePath<GensortRecord> path(spansOf(runs));
            const sorter::MergePath<KeyEntry> entry_path(spansOf(entries));
            const auto bounds = path.partition(3);
            ASSERT_EQ(entry_path.partition(3), bounds);
            for (unsigned t = 0; t < 3; ++t) {
                expectSameBytes(
                    gather(treeMerge(entries, bounds[t], bounds[t + 1]),
                           runs),
                    treeMerge(runs, bounds[t], bounds[t + 1]));
            }
        }
    }
}

/** Record @p r of input @p input at position @p pos as a T whose tie
 *  order shows: a Record's value, an entry's index, names input and
 *  position.  An entry carries the key's top 48 bits in its key word
 *  and the low 16 in its key tail, so small keys (FewDistinct) tie in
 *  the key word and the tail decides. */
template <typename T>
T tagged(const Record &r, std::uint64_t input, std::uint64_t pos);

template <>
Record
tagged<Record>(const Record &r, std::uint64_t input, std::uint64_t pos)
{
    return Record{r.key, input << 32 | pos};
}

template <>
KeyEntry
tagged<KeyEntry>(const Record &r, std::uint64_t input, std::uint64_t pos)
{
    return KeyEntry{r.key >> 16,
                    (r.key & 0xFFFF) << KeyEntry::kIndexBits |
                        input << 24 | pos};
}

/** @p ways sorted, tagged members, member i holding length(i) items
 *  with keys from @p dist. */
template <typename T, typename Length>
Runs<T>
taggedRuns(std::size_t ways, Distribution dist, std::uint64_t seed,
           Length &&length)
{
    Runs<T> runs;
    for (std::size_t i = 0; i < ways; ++i) {
        auto keys = makeRecords(length(i), dist, seed + i);
        std::sort(keys.begin(), keys.end());
        runs.emplace_back();
        for (std::size_t p = 0; p < keys.size(); ++p)
            runs.back().push_back(tagged<T>(keys[p], i, p));
    }
    return runs;
}

/**
 * Merge @p runs through a streamed tree whose refill copies member i's
 * next @p batch items into member i's one buffer, overwriting the last
 * batch as a RunCursor does, and whose output is taken @p chunk items
 * at a time.  Every fill but the last must fill its chunk.
 */
template <typename T>
std::vector<T>
batchedMerge(const Runs<T> &runs, std::size_t batch, std::size_t chunk)
{
    std::vector<std::vector<T>> buffers(runs.size(),
                                        std::vector<T>(batch));
    std::vector<std::size_t> next(runs.size(), 0);
    std::vector<bool> drained(runs.size(), false);
    sorter::MergeTree<T> tree(
        runs.size(), [&](std::size_t i) -> std::span<const T> {
            EXPECT_FALSE(drained[i]) << "member " << i << " refilled "
                                     << "after it was drained";
            const std::size_t n =
                std::min(batch, runs[i].size() - next[i]);
            std::copy_n(runs[i].begin() + next[i], n, buffers[i].begin());
            next[i] += n;
            drained[i] = n == 0;
            return {buffers[i].data(), n};
        });
    std::vector<T> out;
    std::vector<T> buf(chunk);
    for (;;) {
        T *const last = tree.fill(buf.data(), buf.data() + chunk);
        out.insert(out.end(), buf.data(), last);
        if (last != buf.data() + chunk)
            break;
    }
    return out;
}

constexpr Distribution kTopUpKeys[] = {Distribution::UniformRandom,
                                       Distribution::FewDistinct,
                                       Distribution::AllEqual};
constexpr std::size_t kTopUpFanIns[] = {2,  3,  4,  5,  7,  8,
                                        9,  16, 17, 31, 32, 33};

template <typename T>
class MergeTreeTopUp : public ::testing::Test
{
};

using TopUpTypes = ::testing::Types<Record, KeyEntry>;
TYPED_TEST_SUITE(MergeTreeTopUp, TopUpTypes);

TYPED_TEST(MergeTreeTopUp, InMemoryTreesMatchTheTournamentAtEveryTail)
{
    // Members of 0 to 40 items at fan-ins 2 to 33: node blocks are
    // consumed down to every tail length 0-7 before they are topped
    // up, and members end short of 8 items on both sides.
    for (const Distribution dist : kTopUpKeys) {
        for (const std::size_t ways : kTopUpFanIns) {
            for (std::size_t offset = 0; offset <= 40; ++offset) {
                const auto runs = taggedRuns<TypeParam>(
                    ways, dist, 31 * offset + ways, [&](std::size_t i) {
                        return (offset + 11 * i) % 41;
                    });
                SCOPED_TRACE(::testing::Message()
                             << "dist=" << static_cast<int>(dist)
                             << " ways=" << ways << " offset=" << offset);
                expectSameBytes(treeMerge(runs), tournamentMerge(runs));
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

TYPED_TEST(MergeTreeTopUp, StreamedTreesMatchTheTournamentAtEveryBatch)
{
    // Batches of 1 to 17 items leave streamed leaves short of 8 items
    // between refills; output chunks of batch + 5 items end the root's
    // fills at every length mod 8.
    for (const Distribution dist : kTopUpKeys) {
        for (const std::size_t ways : kTopUpFanIns) {
            for (std::size_t offset = 0; offset <= 40; offset += 8) {
                const auto runs = taggedRuns<TypeParam>(
                    ways, dist, 37 * offset + ways, [&](std::size_t i) {
                        return (offset + 13 * i) % 41;
                    });
                const auto want = tournamentMerge(runs);
                for (std::size_t batch = 1; batch <= 17; ++batch) {
                    SCOPED_TRACE(::testing::Message()
                                 << "dist=" << static_cast<int>(dist)
                                 << " ways=" << ways << " offset="
                                 << offset << " batch=" << batch);
                    expectSameBytes(batchedMerge(runs, batch, batch + 5),
                                    want);
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
}

TYPED_TEST(MergeTreeTopUp, BlockStoppingShortOfFullIsNotDrained)
{
    // Fan-in 4: a short member (1-7 items, keys placed anywhere among
    // its sibling's) beside a long one fills the node's block by
    // steps that do not end on a multiple of 8 slots, so the block
    // can stop with 1-7 slots free while both children still hold
    // items.  The node is not drained then, and the tree must emit
    // every item.
    for (std::size_t shorter = 1; shorter <= 7; ++shorter) {
        for (const std::uint64_t at : {0u, 40u, 127u, 130u, 301u, 1000u}) {
            Runs<TypeParam> runs(4);
            for (std::size_t i = 0; i < 4; ++i) {
                const bool is_short = i % 2 == 0;
                const std::size_t n = is_short ? shorter : 400 + 3 * i;
                for (std::size_t p = 0; p < n; ++p) {
                    const std::uint64_t key =
                        is_short ? 2 * at + 1 : 2 * p + 2;
                    runs[i].push_back(
                        tagged<TypeParam>(Record{key, 0}, i, p));
                }
            }
            SCOPED_TRACE(::testing::Message()
                         << "short=" << shorter << " at=" << at);
            const auto want = tournamentMerge(runs);
            expectSameBytes(treeMerge(runs), want);
            for (const std::size_t batch : {3u, 8u, 17u})
                expectSameBytes(batchedMerge(runs, batch, 64), want);
        }
    }
}

} // namespace
} // namespace bonsai
