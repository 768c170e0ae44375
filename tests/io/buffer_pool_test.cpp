/** @file Unit tests for the bounded buffer pool. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/contract.hpp"
#include "common/record.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"

namespace bonsai::io
{
namespace
{

TEST(BufferPool, HandsOutBudgetedBatchBuffers)
{
    // 1024 records of 16 bytes per batch, 64 KiB budget -> 4 buffers.
    BufferPool<Record> pool(1024, 64 << 10);
    EXPECT_EQ(pool.batchRecords(), 1024u);
    EXPECT_EQ(pool.buffers(), 4u);
    EXPECT_EQ(pool.budgetBytes(), 64u << 10);

    std::vector<std::vector<Record>> held;
    for (unsigned i = 0; i < 4; ++i) {
        held.push_back(pool.acquire());
        EXPECT_EQ(held.back().size(), 1024u);
    }
    for (auto &buf : held)
        pool.release(std::move(buf));
}

TEST(BufferPool, RecyclesReleasedBuffers)
{
    BufferPool<Record> pool(16, 16 * sizeof(Record));
    ASSERT_EQ(pool.buffers(), 1u);
    std::vector<Record> buf = pool.acquire();
    buf[0] = Record{7, 7};
    pool.release(std::move(buf));
    // The single-buffer pool must satisfy the next acquire from the
    // free list (a blocking re-allocation would deadlock here).
    std::vector<Record> again = pool.acquire();
    EXPECT_EQ(again.size(), 16u);
    pool.release(std::move(again));
}

TEST(BufferPool, TracksOutstandingAndPeakAcquires)
{
    BufferPool<Record> pool(16, 4 * 16 * sizeof(Record));
    ASSERT_EQ(pool.buffers(), 4u);
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_EQ(pool.peakOutstanding(), 0u);

    std::vector<Record> a = pool.acquire();
    std::vector<Record> b = pool.acquire();
    std::vector<Record> c = pool.acquire();
    EXPECT_EQ(pool.outstanding(), 3u);
    EXPECT_EQ(pool.peakOutstanding(), 3u);

    pool.release(std::move(c));
    pool.release(std::move(b));
    EXPECT_EQ(pool.outstanding(), 1u);
    // The peak is a high-water mark: releases must not lower it.
    EXPECT_EQ(pool.peakOutstanding(), 3u);

    std::vector<Record> d = pool.acquire();
    EXPECT_EQ(pool.outstanding(), 2u);
    EXPECT_EQ(pool.peakOutstanding(), 3u);
    pool.release(std::move(d));
    pool.release(std::move(a));
    EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(BufferPool, ConcurrentAcquiresNeverExceedTheBudget)
{
    // 8 tasks hammer a 4-buffer pool; the peak accounting must show
    // that blocking acquire() kept concurrent holdings at or below
    // the budget (the invariant the phase-2 lane derivation rests
    // on).
    BufferPool<Record> pool(16, 4 * 16 * sizeof(Record));
    ThreadPool workers(8);
    workers.parallelFor(64, [&pool](std::uint64_t) {
        std::vector<Record> buf = pool.acquire();
        buf[0] = Record{1, 1};
        pool.release(std::move(buf));
    });
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_GE(pool.peakOutstanding(), 1u);
    EXPECT_LE(pool.peakOutstanding(), pool.buffers());
}

TEST(BufferPool, BudgetSmallerThanOneBatchFailsLoudly)
{
    // A pool that cannot hold one batch would block the first
    // acquire() forever; the constructor must throw in every build
    // type, not deadlock at some later point mid-sort.
    EXPECT_THROW(BufferPool<Record>(1024, 1024), ContractViolation);
}

TEST(BufferPool, ZeroBatchFailsLoudly)
{
    EXPECT_THROW(BufferPool<Record>(0, 1 << 20), ContractViolation);
}

} // namespace
} // namespace bonsai::io
