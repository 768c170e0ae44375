/**
 * @file
 * Differential tests for phase 2's two streamed trees: a group of
 * gensort runs merged as key entries (mergeEntryGroup: EntryCursor
 * leaves, a gather at the root into whole writer transfers) must
 * write, byte for byte, what the same group merged as records writes
 * (mergeRecordGroup: RunCursor leaves) — std::stable_sort of the runs
 * in member order — over memory and file stores, at batches of 1, 2,
 * 3 and 40 records, on uniform keys and on keys that tie in bytes
 * 0-7, in few values or in one, for one tree and for the slices of a
 * multi-lane final pass.  The entry tree's leases stay within the
 * slots its pass booked: no acquire waits, and every buffer is back
 * after the merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/gensort.hpp"
#include "common/run.hpp"
#include "gensort_keys.hpp"
#include "io/buffer_pool.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "oracle_sort.hpp"
#include "sorter/merge_plan.hpp"
#include "sorter/phase2_merge.hpp"
#include "sorter/splitter.hpp"

namespace bonsai::sorter
{
namespace
{

using Records = std::vector<GensortRecord>;

bool
sameBytes(const Records &a, const Records &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(GensortRecord)) ==
             0);
}

/** @p ways sorted runs of @p keys written back to back into @p store:
 *  every fourth member empty, one far longer than the rest.  Returns
 *  the members and, in @p all, the runs' records in member order. */
std::vector<RunSpan>
storeRuns(io::RunStore<GensortRecord> &store, std::size_t ways,
          GensortKeys keys, Records &all)
{
    std::vector<RunSpan> members;
    all.clear();
    for (std::size_t i = 0; i < ways; ++i) {
        const std::size_t len =
            i % 4 == 1 ? 0 : (i == 2 ? 300 : 30 + i * 7 % 23);
        const Records run = oracleSort(makeGensortKeys(len, keys, 11 + i));
        if (!run.empty())
            store.writeAt(all.size(), run.data(), run.size());
        members.push_back(RunSpan{all.size(), run.size()});
        all.insert(all.end(), run.begin(), run.end());
    }
    return members;
}

/** The records of @p members merged by @p merge under the leases a
 *  pass of one group leaves in a pool of @p have slots of @p batch
 *  records; a lease beyond the pool's slots would throw. */
template <typename Merge>
Records
mergeWith(Merge merge, const io::RunStore<GensortRecord> &store,
          std::span<const RunSpan> members, std::uint64_t batch,
          std::uint64_t have, bool entries)
{
    io::BufferPool<GensortRecord> pool(
        batch, have * batch * sizeof(GensortRecord));
    const PassTransfer t = passTransfer(
        have, 1, members.size(),
        LaneItems{batch, sizeof(GensortRecord), entries});
    Records out;
    io::MemorySink<GensortRecord> sink(out);
    LaneArena<GensortRecord> arena;
    const MergeTally tally = merge(store, members, sink, pool, t, arena);
    EXPECT_EQ(tally.moved, out.size());
    EXPECT_LE(pool.peakOutstanding(), have);
    EXPECT_EQ(pool.outstanding(), 0u);
    return out;
}

Records
entryMerge(const io::RunStore<GensortRecord> &store,
           std::span<const RunSpan> members, std::uint64_t batch,
           std::uint64_t have)
{
    return mergeWith(
        [](auto &&...a) { return mergeEntryGroup<GensortRecord>(a...); },
        store, members, batch, have, true);
}

Records
recordMerge(const io::RunStore<GensortRecord> &store,
            std::span<const RunSpan> members, std::uint64_t batch,
            std::uint64_t have)
{
    return mergeWith(
        [](auto &&...a) { return mergeRecordGroup<GensortRecord>(a...); },
        store, members, batch, have, false);
}

/** Slots for one group of @p members: the entry tree's least lane, or
 *  three whole lanes, whose spare slots grow its writer and reads. */
std::uint64_t
slotsFor(std::size_t members, std::uint64_t batch, bool roomy)
{
    const LaneItems items{batch, sizeof(GensortRecord), true};
    return roomy ? 3 * laneSlots(members, items)
                 : leastLaneSlots(members, items);
}

constexpr GensortKeys kKeySets[] = {GensortKeys::Uniform,
                                    GensortKeys::PrefixTie,
                                    GensortKeys::FewDistinct,
                                    GensortKeys::AllEqual};

TEST(Phase2EntryTree, MatchesTheRecordTreeOnEveryStoreAndBatch)
{
    for (const GensortKeys keys : kKeySets) {
        for (const std::size_t ways : {1u, 2u, 3u, 5u, 64u}) {
            for (const std::uint64_t batch : {1u, 2u, 3u, 40u}) {
                for (const bool roomy : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "keys=" << keyName(keys)
                                 << " ways=" << ways << " batch=" << batch
                                 << " roomy=" << roomy);
                    Records all;
                    Records backing(300 + 53 * ways);
                    io::MemoryRunStore<GensortRecord> memory{
                        std::span<GensortRecord>(backing)};
                    io::FileRunStore<GensortRecord> file;
                    for (io::RunStore<GensortRecord> *store :
                         {static_cast<io::RunStore<GensortRecord> *>(
                              &memory),
                          static_cast<io::RunStore<GensortRecord> *>(
                              &file)}) {
                        const auto members =
                            storeRuns(*store, ways, keys, all);
                        const std::uint64_t have =
                            slotsFor(ways, batch, roomy);
                        const Records want = oracleSort(all);
                        const Records records =
                            recordMerge(*store, members, batch, have);
                        EXPECT_TRUE(sameBytes(records, want));
                        EXPECT_TRUE(sameBytes(
                            entryMerge(*store, members, batch, have),
                            records));
                    }
                }
            }
        }
    }
}

TEST(Phase2EntryTree, FinalPassSlicesMatchTheRecordTree)
{
    // The final pass cuts its group into per-lane slices along
    // splitters; each slice's entry tree must write what its record
    // tree writes, and the slices, stitched, the whole merge.
    for (const GensortKeys keys : kKeySets) {
        for (const std::uint64_t batch : {1u, 3u, 40u}) {
            for (const unsigned slices : {2u, 3u, 4u}) {
                SCOPED_TRACE(::testing::Message()
                             << "keys=" << keyName(keys)
                             << " batch=" << batch << " slices=" << slices);
                io::FileRunStore<GensortRecord> store;
                Records all;
                const auto members = storeRuns(store, 5, keys, all);
                const std::uint64_t have =
                    slices * slotsFor(members.size(), batch, false);
                io::BufferPool<GensortRecord> probes(
                    batch, have * batch * sizeof(GensortRecord));
                const auto cuts =
                    finalSliceCuts<GensortRecord>(store, members, slices,
                                                  probes);
                Records stitched;
                for (unsigned t = 0; t < slices; ++t) {
                    std::vector<RunSpan> sub;
                    for (std::size_t j = 0; j < members.size(); ++j)
                        sub.push_back(
                            RunSpan{members[j].offset + cuts[t][j],
                                    cuts[t + 1][j] - cuts[t][j]});
                    const std::uint64_t share = have / slices;
                    const Records records =
                        recordMerge(store, sub, batch, share);
                    const Records entries =
                        entryMerge(store, sub, batch, share);
                    EXPECT_TRUE(sameBytes(entries, records))
                        << "slice " << t;
                    stitched.insert(stitched.end(), entries.begin(),
                                    entries.end());
                }
                EXPECT_TRUE(sameBytes(stitched, oracleSort(all)));
            }
        }
    }
}

TEST(Phase2EntryTree, WriterTakesWholeTransfersWhenTheShareHoldsThem)
{
    // 96 members at the 4 MiB plan's slot: the least lane writes one
    // slot at a time, the booked lane one whole 128 KiB transfer.
    const LaneItems items{48, sizeof(GensortRecord), true};
    const PassTransfer least =
        passTransfer(leastLaneSlots(96, items), 1, 96, items);
    EXPECT_EQ(least.readSlots, 1u);
    EXPECT_EQ(least.writeSlots, 1u);
    const PassTransfer whole =
        passTransfer(laneSlots(96, items), 1, 96, items);
    EXPECT_EQ(whole.readSlots, 1u);
    EXPECT_EQ(whole.writeSlots, kTransferBytes / (48 * 100));
    EXPECT_EQ(whole.cursorSlots, 2 * 96 + pinnedSlots(96, 48));
    // Room beyond the whole writer goes to the reads.
    const PassTransfer roomy =
        passTransfer(laneSlots(96, items) + 2 * 96, 1, 96, items);
    EXPECT_EQ(roomy.readSlots, 2u);
    EXPECT_EQ(roomy.writeSlots, whole.writeSlots);
}

} // namespace
} // namespace bonsai::sorter
