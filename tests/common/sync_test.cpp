/** @file
 * Behavioral tests for the annotated sync primitives.  The static
 * half of the contract (unlocked access, double-acquire, wrong-order)
 * is pinned at compile time by tests/static/; these tests cover the
 * runtime half — mutual exclusion, wakeups, relocking and the
 * first-error latch — and give TSan real schedules to chew on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"

namespace bonsai
{
namespace
{

TEST(SyncPrimitives, ScopedLockProvidesMutualExclusion)
{
    // A non-atomic counter bumped from many tasks: only the lock
    // keeps the final count exact (and TSan honest).
    Mutex mutex;
    std::uint64_t count = 0;
    ThreadPool pool(8);
    pool.parallelFor(10000, [&](std::uint64_t) {
        ScopedLock lock(mutex);
        ++count;
    });
    EXPECT_EQ(count, 10000u);
}

TEST(SyncPrimitives, ScopedLockRelocksMidScope)
{
    // Open the critical section around outside work, then re-enter
    // it on the same ScopedLock.
    Mutex mutex;
    std::uint64_t inside = 0;
    std::atomic<std::uint64_t> outside{0};
    ThreadPool pool(4);
    pool.parallelFor(1000, [&](std::uint64_t) {
        ScopedLock lock(mutex);
        ++inside;
        lock.unlock();
        outside.fetch_add(1, std::memory_order_relaxed);
        lock.lock();
        ++inside;
    });
    EXPECT_EQ(inside, 2000u);
    EXPECT_EQ(outside.load(std::memory_order_relaxed), 1000u);
}

TEST(SyncPrimitives, CondVarWakesPredicateLoopWaiters)
{
    // Producer/consumer handshake across two threads, repeated enough
    // to exercise both the fast path (already signaled) and the slow
    // path (waiter actually sleeps).
    Mutex mutex;
    CondVar cv;
    int token = 0; // +1 by producer, -1 by consumer; bounded by 1
    int consumed = 0;
    // Two tasks on a two-thread pool: task 0 cannot finish before
    // task 1 runs, so the two always run on different threads.
    ThreadPool(2).parallelFor(2, [&](std::uint64_t role) {
        for (int i = 0; i < 500; ++i) {
            ScopedLock lock(mutex);
            if (role == 0) { // producer
                while (token != 0)
                    cv.wait(mutex);
                ++token;
            } else { // consumer
                while (token != 1)
                    cv.wait(mutex);
                --token;
                ++consumed;
            }
            cv.notifyAll();
        }
    });
    EXPECT_EQ(consumed, 500);
    EXPECT_EQ(token, 0);
}

TEST(SyncPrimitives, ErrorTrapKeepsTheFirstError)
{
    ErrorTrap trap;
    try {
        throw std::runtime_error("first");
    } catch (...) {
        trap.store(std::current_exception());
    }
    try {
        throw std::logic_error("second");
    } catch (...) {
        trap.store(std::current_exception());
    }
    EXPECT_THROW(trap.rethrowIfSet(), std::runtime_error);
}

TEST(SyncPrimitives, ErrorTrapConsumesOnRethrow)
{
    ErrorTrap trap;
    trap.rethrowIfSet(); // empty trap is a no-op
    try {
        throw std::runtime_error("boom");
    } catch (...) {
        trap.store(std::current_exception());
    }
    EXPECT_THROW(trap.rethrowIfSet(), std::runtime_error);
    trap.rethrowIfSet(); // consumed: second call is a no-op
}

TEST(SyncPrimitives, ErrorTrapUnderConcurrentStores)
{
    // The parallelFor catch-block usage: many tasks fail at once, the
    // submitting thread sees exactly one error afterwards.
    ErrorTrap trap;
    ThreadPool pool(8);
    pool.parallelFor(256, [&](std::uint64_t i) {
        try {
            throw std::runtime_error("task " + std::to_string(i));
        } catch (...) {
            trap.store(std::current_exception());
        }
    });
    EXPECT_THROW(trap.rethrowIfSet(), std::runtime_error);
    trap.rethrowIfSet();
}

TEST(SyncPrimitives, ErrorTrapCountsSecondaryErrors)
{
    // Errors behind the first failure are counted, not kept: first
    // error wins, the tally is telemetry.
    ErrorTrap trap;
    try {
        throw std::runtime_error("primary");
    } catch (...) {
        trap.store(std::current_exception());
    }
    for (int i = 0; i < 3; ++i) {
        try {
            throw std::logic_error("later");
        } catch (...) {
            trap.store(std::current_exception());
        }
    }
    EXPECT_EQ(trap.secondaryCount(), 3u);
    EXPECT_THROW(trap.rethrowIfSet(), std::runtime_error);
}

} // namespace
} // namespace bonsai
