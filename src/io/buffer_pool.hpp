/**
 * @file
 * Bounded buffer pool for the streaming sorter's batched I/O.
 *
 * The out-of-core merge gives every run cursor and every output
 * writer one batch-sized buffer (b records each, mirroring the
 * hardware data loader's batched reads).  The pool bounds the total
 * buffer bytes — the software analogue of the paper's Equation 10
 * on-chip budget b * ell — and the engine derives its effective merge
 * fan-in from the buffer count, so memory use never exceeds the
 * budget no matter how many runs phase 1 produced.
 *
 * A pool whose budget cannot hold even one batch would make the first
 * acquire() block forever; the constructor fails loudly instead (in
 * every build type).
 *
 * The pool is a leaf lock in the common/sync.hpp capability scheme:
 * every entry point is BONSAI_EXCLUDES its own mutex and no critical
 * section acquires another lock, so the -Wthread-safety build proves
 * the locking discipline structurally (guarded members, no re-entry).
 */

#ifndef BONSAI_IO_BUFFER_POOL_HPP
#define BONSAI_IO_BUFFER_POOL_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/sync.hpp"

namespace bonsai::io
{

/** Bounded pool of batch-sized record buffers. */
template <typename RecordT>
class BufferPool
{
  public:
    /**
     * @param batch_records Records per buffer (the paper's b, in
     *        records).
     * @param budget_bytes Total buffer budget; the pool hands out at
     *        most budget_bytes / (batch_records * sizeof(RecordT))
     *        buffers.
     */
    BufferPool(std::uint64_t batch_records, std::uint64_t budget_bytes)
        : batch_(batch_records)
    {
        if (batch_records == 0)
            contracts::fail("precondition", "batch_records > 0",
                            __FILE__, __LINE__,
                            "BufferPool batch size must be nonzero");
        const std::uint64_t batch_bytes =
            batch_records * sizeof(RecordT);
        count_ = budget_bytes / batch_bytes;
        if (count_ == 0)
            contracts::fail(
                "precondition", "budget_bytes >= batch bytes", __FILE__,
                __LINE__,
                "BufferPool budget (" + std::to_string(budget_bytes) +
                    " bytes) is smaller than one batch buffer (" +
                    std::to_string(batch_bytes) +
                    " bytes); acquire() would deadlock");
    }

    /** Records per buffer (b). */
    std::uint64_t batchRecords() const { return batch_; }

    /** Total buffers the budget affords. */
    std::uint64_t buffers() const { return count_; }

    /** Total bytes the pool may hold at once. */
    std::uint64_t
    budgetBytes() const
    {
        return count_ * batch_ * sizeof(RecordT);
    }

    /**
     * Take a buffer of batchRecords() records, blocking while all
     * buffers are out.  Callers must bound their concurrent holdings
     * by buffers() (the stream engine derives its fan-in *and* its
     * phase-2 group concurrency from it), or acquire() deadlocks.
     */
    std::vector<RecordT>
    acquire() BONSAI_EXCLUDES(mutex_)
    {
        ScopedLock lock(mutex_);
        while (free_.empty() && allocated_ >= count_)
            available_.wait(mutex_);
        ++outstanding_;
        peak_ = std::max(peak_, outstanding_);
        if (!free_.empty()) {
            std::vector<RecordT> buf = std::move(free_.back());
            free_.pop_back();
            return buf;
        }
        ++allocated_;
        lock.unlock();
        return std::vector<RecordT>(batch_);
    }

    /** Return a buffer taken with acquire(). */
    void
    release(std::vector<RecordT> buf) BONSAI_EXCLUDES(mutex_)
    {
        {
            ScopedLock lock(mutex_);
            BONSAI_REQUIRE(outstanding_ > 0,
                           "release without a matching acquire");
            --outstanding_;
            free_.push_back(std::move(buf));
        }
        available_.notifyOne();
    }

    /** Buffers currently held by callers. */
    std::uint64_t
    outstanding() const BONSAI_EXCLUDES(mutex_)
    {
        ScopedLock lock(mutex_);
        return outstanding_;
    }

    /**
     * High-water mark of concurrently held buffers — the concurrent-
     * acquire accounting the parallel phase-2 merge is tested against:
     * it must never exceed buffers(), or the budget derivation
     * admitted more lanes than the pool can feed.
     */
    std::uint64_t
    peakOutstanding() const BONSAI_EXCLUDES(mutex_)
    {
        ScopedLock lock(mutex_);
        return peak_;
    }

  private:
    std::uint64_t batch_;
    std::uint64_t count_ = 0;

    mutable Mutex mutex_;
    CondVar available_;
    std::vector<std::vector<RecordT>> free_ BONSAI_GUARDED_BY(mutex_);
    std::uint64_t allocated_ BONSAI_GUARDED_BY(mutex_) = 0;
    std::uint64_t outstanding_ BONSAI_GUARDED_BY(mutex_) = 0;
    std::uint64_t peak_ BONSAI_GUARDED_BY(mutex_) = 0;
};

} // namespace bonsai::io

#endif // BONSAI_IO_BUFFER_POOL_HPP
