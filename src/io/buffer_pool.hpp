/**
 * @file
 * Bounded buffer pool for the streaming sorter's batched I/O.
 *
 * The pool's unit is a slot of b records (the paper's batch, mirroring
 * the hardware data loader's batched reads), and it bounds the total
 * slot bytes — the software analogue of the paper's Equation 10
 * on-chip budget b * ell, a static allocation with nothing to wait
 * on.  The engine plans its merge fan-in, its concurrent lanes and
 * each pass's leases against the slot count, so memory use never
 * exceeds the budget no matter how many runs phase 1 produced.  A
 * lease may take k slots as one contiguous buffer of k * b records: a
 * phase-2 pass that merges fewer runs than the reservation covers
 * hands its cursors and writers k-slot buffers and so moves k batches
 * per read or write.
 *
 * Slots are counted, not buffers: outstanding() and peakOutstanding()
 * are in slots, and the memory the pool keeps (leased plus free
 * buffers) never exceeds buffers() slots — a free buffer of another
 * size is dropped when a new one needs its slots.
 *
 * A lease beyond the free slots breaks the caller's plan: acquire()
 * fails loudly (in every build type) instead of waiting, and so does
 * the constructor of a pool whose budget cannot hold even one slot.
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
#include "common/record_buffer.hpp"
#include "common/sync.hpp"

namespace bonsai::io
{

/** Bounded pool of record buffers, counted in batch-sized slots. */
template <typename RecordT>
class BufferPool
{
  public:
    /**
     * @param batch_records Records per slot (the paper's b, in
     *        records).
     * @param budget_bytes Total buffer budget; the pool hands out at
     *        most budget_bytes / (batch_records * sizeof(RecordT))
     *        slots.
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
                    " bytes); no acquire() could be met");
    }

    /**
     * Frees every buffer and hands the freed pages back to the
     * system.  Phase-2 buffers are small enough to live in the C
     * heap, and glibc keeps freed heap pages resident while any live
     * allocation sits above them; a finished sort would then leave
     * up to its whole pool resident, on top of which the next sort's
     * phase 1 maps its chunk buffers.
     */
    ~BufferPool()
    {
        free_.clear();
        free_.shrink_to_fit();
        releaseFreedHeap();
    }

    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /** Records per slot (b). */
    std::uint64_t batchRecords() const { return batch_; }

    /** Total slots the budget affords. */
    std::uint64_t buffers() const { return count_; }

    /** Total bytes the pool may hold at once. */
    std::uint64_t
    budgetBytes() const
    {
        return count_ * batch_ * sizeof(RecordT);
    }

    /**
     * Take a buffer of @p slots * batchRecords() records.  Callers
     * plan their concurrent holdings to fit buffers() slots (the
     * stream engine derives its fan-in, its phase-2 group concurrency
     * and its per-pass transfer from it); a request for more slots
     * than are free is outside that plan and fails loudly.
     */
    std::vector<RecordT>
    acquire(std::uint64_t slots = 1) BONSAI_EXCLUDES(mutex_)
    {
        const std::uint64_t records = slots * batch_;
        // Free buffers dropped to make room, destroyed after the
        // lock is released (declared before it).
        std::vector<std::vector<RecordT>> dropped;
        ScopedLock lock(mutex_);
        if (slots == 0 || slots > count_ - outstanding_)
            contracts::fail(
                "precondition", "0 < slots <= buffers() - outstanding()",
                __FILE__, __LINE__,
                "BufferPool request for " + std::to_string(slots) +
                    " slot(s) with " + std::to_string(outstanding_) +
                    " of " + std::to_string(count_) +
                    " held; the lease exceeds the pool's plan");
        outstanding_ += slots;
        peak_ = std::max(peak_, outstanding_);
        const auto fit = std::find_if(
            free_.begin(), free_.end(),
            [records](const std::vector<RecordT> &buf) {
                return buf.size() == records;
            });
        if (fit != free_.end()) {
            std::iter_swap(fit, free_.end() - 1);
            std::vector<RecordT> buf = std::move(free_.back());
            free_.pop_back();
            return buf;
        }
        // The free list holds allocated_ - (outstanding_ - slots)
        // slots and outstanding_ <= count_, so dropping free buffers
        // always makes room for the new one.
        while (allocated_ + slots > count_) {
            allocated_ -= free_.back().size() / batch_;
            dropped.push_back(std::move(free_.back()));
            free_.pop_back();
        }
        allocated_ += slots;
        lock.unlock();
        return std::vector<RecordT>(records);
    }

    /** Return a buffer taken with acquire(); its size says how many
     *  slots it frees. */
    void
    release(std::vector<RecordT> buf) BONSAI_EXCLUDES(mutex_)
    {
        const std::uint64_t slots = buf.size() / batch_;
        ScopedLock lock(mutex_);
        BONSAI_REQUIRE(slots > 0 && buf.size() % batch_ == 0 &&
                           slots <= outstanding_,
                       "release without a matching acquire");
        outstanding_ -= slots;
        free_.push_back(std::move(buf));
    }

    /** Slots currently held by callers. */
    std::uint64_t
    outstanding() const BONSAI_EXCLUDES(mutex_)
    {
        ScopedLock lock(mutex_);
        return outstanding_;
    }

    /**
     * High-water mark of concurrently held slots — the concurrent-
     * acquire accounting the parallel phase-2 merge is tested against:
     * it must never exceed buffers(), or the budget derivation
     * admitted more lanes or a wider transfer than the pool can
     * feed.
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
    std::vector<std::vector<RecordT>> free_ BONSAI_GUARDED_BY(mutex_);
    /** Slots of every live buffer, leased or free. */
    std::uint64_t allocated_ BONSAI_GUARDED_BY(mutex_) = 0;
    std::uint64_t outstanding_ BONSAI_GUARDED_BY(mutex_) = 0;
    std::uint64_t peak_ BONSAI_GUARDED_BY(mutex_) = 0;
};

} // namespace bonsai::io

#endif // BONSAI_IO_BUFFER_POOL_HPP
