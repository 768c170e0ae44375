/** @file
 * Unit tests for the pipeline BoundedQueue: FIFO delivery and
 * end-of-stream, the backpressure bound under an adversarial slow
 * consumer, poison() waking blocked peers, and poison() releasing
 * RAII items (pool leases) pending in the queue.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/contract.hpp"
#include "common/thread_pool.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "pipeline/queue.hpp"

namespace bonsai::pipeline
{
namespace
{

TEST(BoundedQueue, DeliversItemsInFifoOrderThenEndOfStream)
{
    BoundedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    q.close();

    double stall = 0.0;
    EXPECT_EQ(q.pop(stall), std::optional<int>(1));
    EXPECT_EQ(q.pop(stall), std::optional<int>(2));
    EXPECT_EQ(q.pop(stall), std::optional<int>(3));
    EXPECT_EQ(q.pop(stall), std::nullopt);
    EXPECT_EQ(q.pop(stall), std::nullopt); // end-of-stream is sticky
}

TEST(BoundedQueue, BackpressureNeverExceedsCapacity)
{
    // Adversarial speed mismatch: the producer races 200 items into a
    // capacity-2 queue while the consumer observes the queue size on
    // every pop.  The bound must hold at every observation — the
    // producer blocks instead of buffering past the capacity.
    BoundedQueue<std::uint64_t> q(2);
    std::uint64_t next = 0;
    // Task 0 (the producer) blocks on the full queue until task 1
    // (the consumer) pops, so the two always run on different threads.
    ThreadPool(2).parallelFor(2, [&](std::uint64_t role) {
        if (role == 0) {
            for (std::uint64_t i = 0; i < 200; ++i)
                q.push(i);
            q.close();
            return;
        }
        double stall = 0.0;
        while (const std::optional<std::uint64_t> item = q.pop(stall)) {
            EXPECT_LE(q.size(), q.capacity());
            EXPECT_EQ(*item, next);
            ++next;
        }
    });
    EXPECT_EQ(next, 200u);
}

TEST(BoundedQueue, PoisonWakesABlockedProducer)
{
    BoundedQueue<int> q(1);
    q.push(0); // full: the next push blocks

    std::atomic<bool> aborted{false};
    // Task 0 blocks in push() until task 1 poisons the queue.
    // Whether the poison lands before or mid-block, the push must
    // surface PipelineAborted, never enqueue.
    ThreadPool(2).parallelFor(2, [&](std::uint64_t role) {
        if (role == 1) {
            q.poison();
            return;
        }
        try {
            q.push(1);
        } catch (const PipelineAborted &) {
            aborted.store(true);
        }
    });
    EXPECT_TRUE(aborted.load());
}

TEST(BoundedQueue, PoisonWakesABlockedConsumer)
{
    BoundedQueue<int> q(1);

    std::atomic<bool> aborted{false};
    // Task 0 blocks in pop() until task 1 poisons the queue.
    ThreadPool(2).parallelFor(2, [&](std::uint64_t role) {
        if (role == 1) {
            q.poison();
            return;
        }
        double stall = 0.0;
        try {
            q.pop(stall);
        } catch (const PipelineAborted &) {
            aborted.store(true);
        }
    });
    EXPECT_TRUE(aborted.load());
}

TEST(BoundedQueue, PoisonReleasesPendingPoolLeases)
{
    // The unwind contract pool-backed pipelines rely on: items
    // stranded in a poisoned queue are destroyed, and RAII leases
    // return their buffers — outstanding() reaches zero without any
    // stage running a cleanup path.
    io::BufferPool<std::uint64_t> pool(
        16, 4 * 16 * sizeof(std::uint64_t)); // 4 buffers
    BoundedQueue<io::PoolLease<std::uint64_t>> q(4);
    for (int i = 0; i < 3; ++i)
        q.push(io::PoolLease<std::uint64_t>(pool));
    EXPECT_EQ(pool.outstanding(), 3u);

    q.poison();
    EXPECT_EQ(pool.outstanding(), 0u);
    EXPECT_THROW(q.push(io::PoolLease<std::uint64_t>(pool)),
                 PipelineAborted);
    EXPECT_EQ(pool.outstanding(), 0u); // the rejected push's lease too
}

TEST(BoundedQueue, PushAfterCloseIsAContractViolation)
{
    if (!contracts::enabled())
        GTEST_SKIP() << "contracts compiled out of this build";
    BoundedQueue<int> q(2);
    q.close();
    EXPECT_THROW(q.push(1), ContractViolation);
}

TEST(BoundedQueue, ZeroCapacityIsAContractViolation)
{
    if (!contracts::enabled())
        GTEST_SKIP() << "contracts compiled out of this build";
    EXPECT_THROW(BoundedQueue<int> q(0), ContractViolation);
}

} // namespace
} // namespace bonsai::pipeline
