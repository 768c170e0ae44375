/**
 * @file
 * RunCursor reads of k pool slots: over a memory and a file store, a
 * cursor leasing k slots of b records returns the run in transfers of
 * k * b records, the last one short when the run is not a multiple of
 * k * b, and holds exactly k slots of its pool until it dies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/record.hpp"
#include "common/run.hpp"
#include "io/buffer_pool.hpp"
#include "io/run_store.hpp"
#include "sorter/run_cursor.hpp"

namespace bonsai::sorter
{
namespace
{

constexpr std::uint64_t kBatch = 7;

/** Walk a cursor over @p span of @p store leasing @p slots slots;
 *  check every transfer's size and contents. */
void
expectTransfers(const io::RunStore<Record> &store,
                const std::vector<Record> &stored, RunSpan span,
                std::uint64_t slots)
{
    io::BufferPool<Record> pool(kBatch, 16 * kBatch * sizeof(Record));
    {
        RunCursor<Record> cursor(store, span, pool, slots);
        EXPECT_EQ(pool.outstanding(), slots);
        const std::uint64_t transfer = slots * kBatch;
        std::uint64_t pos = 0;
        for (std::span<const Record> got = cursor.next(); !got.empty();
             got = cursor.next()) {
            const std::uint64_t left = span.length - pos;
            ASSERT_EQ(got.size(), std::min(transfer, left))
                << "transfer at record " << pos;
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], stored[span.offset + pos + i])
                    << "record " << pos + i;
            pos += got.size();
        }
        EXPECT_EQ(pos, span.length);
        EXPECT_TRUE(cursor.next().empty());
    }
    EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(RunCursor, ReadsKSlotTransfersWithAShortLast)
{
    // 100 records at offset 5 are a multiple of none of the
    // transfers (7, 14, 21 and 112 records), so every k ends on a
    // short transfer; at k = 16 it is the only one.
    std::vector<Record> stored(110);
    for (std::uint64_t i = 0; i < stored.size(); ++i)
        stored[i] = Record{1000 + i, i};
    const RunSpan span{5, 100};
    for (const std::uint64_t k : {1u, 2u, 3u, 16u}) {
        SCOPED_TRACE(::testing::Message() << "k=" << k);
        std::vector<Record> backing = stored;
        io::MemoryRunStore<Record> memory{std::span<Record>(backing)};
        expectTransfers(memory, stored, span, k);
        io::FileRunStore<Record> file;
        file.writeAt(0, stored.data(), stored.size());
        expectTransfers(file, stored, span, k);
    }
}

TEST(RunCursor, EmptyRunHoldsItsSlotsAndReadsNothing)
{
    std::vector<Record> backing(4);
    io::MemoryRunStore<Record> memory{std::span<Record>(backing)};
    expectTransfers(memory, backing, RunSpan{2, 0}, 3);
}

} // namespace
} // namespace bonsai::sorter
