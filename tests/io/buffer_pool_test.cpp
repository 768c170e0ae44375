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
    // free list.
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
    // 4 workers holding one slot each at most on a 4-slot pool, the
    // phase-2 lanes' plan in small: every lease fits, and the peak
    // accounting stays within the budget under concurrent acquires
    // and releases.
    BufferPool<Record> pool(16, 4 * 16 * sizeof(Record));
    ThreadPool workers(4);
    workers.parallelFor(64, [&pool](std::uint64_t) {
        std::vector<Record> buf = pool.acquire();
        buf[0] = Record{1, 1};
        pool.release(std::move(buf));
    });
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_GE(pool.peakOutstanding(), 1u);
    EXPECT_LE(pool.peakOutstanding(), pool.buffers());
}

TEST(BufferPool, KSlotLeaseCountsKSlots)
{
    // 8 slots of 16 records: a 3-slot and a 5-slot lease are one
    // contiguous buffer each and together use the whole budget.
    BufferPool<Record> pool(16, 8 * 16 * sizeof(Record));
    ASSERT_EQ(pool.buffers(), 8u);
    std::vector<Record> three = pool.acquire(3);
    EXPECT_EQ(three.size(), 3u * 16);
    EXPECT_EQ(pool.outstanding(), 3u);
    EXPECT_EQ(pool.peakOutstanding(), 3u);
    std::vector<Record> five = pool.acquire(5);
    EXPECT_EQ(five.size(), 5u * 16);
    EXPECT_EQ(pool.outstanding(), 8u);
    EXPECT_EQ(pool.peakOutstanding(), 8u);
    pool.release(std::move(three));
    EXPECT_EQ(pool.outstanding(), 5u);
    pool.release(std::move(five));
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_EQ(pool.peakOutstanding(), 8u);
}

TEST(BufferPool, AcquireBeyondTheFreeSlotsFailsLoudly)
{
    // 3 of 4 slots held: a 2-slot request exceeds the plan and must
    // throw in every build type, leaving the holdings as they were.
    BufferPool<Record> pool(16, 4 * 16 * sizeof(Record));
    std::vector<std::vector<Record>> held;
    for (int i = 0; i < 3; ++i)
        held.push_back(pool.acquire());
    EXPECT_THROW(pool.acquire(2), ContractViolation);
    EXPECT_EQ(pool.outstanding(), 3u);
    held.push_back(pool.acquire(1));
    EXPECT_EQ(pool.outstanding(), 4u);
    for (auto &buf : held)
        pool.release(std::move(buf));
    EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(BufferPool, FreeBuffersOfAnotherSizeMakeRoomForAWiderLease)
{
    // Four 1-slot buffers sit on the free list of a 4-slot pool; a
    // 4-slot request must be met (their memory gives way), not fail
    // on memory no caller holds.  Its buffer then serves the next
    // 4-slot request, and 1-slot requests again after that.
    BufferPool<Record> pool(16, 4 * 16 * sizeof(Record));
    std::vector<std::vector<Record>> held;
    for (int i = 0; i < 4; ++i)
        held.push_back(pool.acquire());
    for (auto &buf : held)
        pool.release(std::move(buf));
    held.clear();
    for (int round = 0; round < 2; ++round) {
        std::vector<Record> all = pool.acquire(4);
        EXPECT_EQ(all.size(), 4u * 16);
        EXPECT_EQ(pool.outstanding(), 4u);
        pool.release(std::move(all));
    }
    for (int i = 0; i < 4; ++i)
        held.push_back(pool.acquire());
    EXPECT_EQ(pool.outstanding(), 4u);
    for (auto &buf : held)
        pool.release(std::move(buf));
    EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(BufferPool, ConcurrentKSlotAcquiresNeverExceedTheBudget)
{
    // Two tasks at a time asking for 1, 2 and 3 of 6 slots: any two
    // leases fit, so every request is met, and the holdings never
    // pass the budget.
    BufferPool<Record> pool(16, 6 * 16 * sizeof(Record));
    ThreadPool workers(2);
    workers.parallelFor(96, [&pool](std::uint64_t i) {
        std::vector<Record> buf = pool.acquire(1 + i % 3);
        buf.back() = Record{1, 1};
        pool.release(std::move(buf));
    });
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_GE(pool.peakOutstanding(), 3u);
    EXPECT_LE(pool.peakOutstanding(), pool.buffers());
}

TEST(BufferPool, RequestBeyondTheBudgetFailsLoudly)
{
    // A request for more slots than the pool has can never be met:
    // it must throw in every build type.
    BufferPool<Record> pool(16, 4 * 16 * sizeof(Record));
    EXPECT_THROW(pool.acquire(5), ContractViolation);
    EXPECT_THROW(pool.acquire(0), ContractViolation);
    EXPECT_EQ(pool.outstanding(), 0u);
    std::vector<Record> all = pool.acquire(4);
    EXPECT_EQ(all.size(), 4u * 16);
    pool.release(std::move(all));
}

TEST(BufferPool, BudgetSmallerThanOneBatchFailsLoudly)
{
    // A pool that cannot hold one batch could serve no acquire();
    // the constructor must throw in every build type, not leave the
    // failure to some later point mid-sort.
    EXPECT_THROW(BufferPool<Record>(1024, 1024), ContractViolation);
}

TEST(BufferPool, ZeroBatchFailsLoudly)
{
    EXPECT_THROW(BufferPool<Record>(0, 1 << 20), ContractViolation);
}

} // namespace
} // namespace bonsai::io
