/**
 * @file
 * Forward-only views of one stored run, read on the merging thread
 * when the merge tree's leaf for the run runs dry
 * (sorter/merge_tree.hpp), k batches (k * b records, the phase-2
 * pass's transfer) into leased k-slot pool buffers.  The last read of
 * a run is short when the run is not a multiple of k * b.
 *
 * RunCursor feeds a tree of records: each read lands in its one
 * leased buffer, which the leaf merges from until the next read
 * overwrites it.
 *
 * EntryCursor feeds a tree of key entries (EntryKeyed records): each
 * read takes a fresh lease, and the leaf hands out the entries of its
 * records, at most one node block of them at a time, while the
 * records stay in the lease.  An entry's 48-bit index is the cursor's
 * tag (the member, above) plus the record's position in its run.  A
 * merge keeps each input's order, so the root's gather takes each
 * cursor's records in the order they were read, and take() releases
 * the oldest lease once its last record is copied.  The leases a
 * cursor holds are counted against a booking its tree shares with
 * the other cursors, the tree's share of the pass's plan: a lease
 * beyond it fails loudly here, naming the tree, before the pool's
 * own bound would.
 *
 * The read is a plain RunStore::readAt — a buffered pread on a
 * FileRunStore, which the kernel's readahead already overlaps with
 * compute, or a memcpy on a MemoryRunStore.  The leases return their
 * buffers on every path, a merge unwinding from a failed read
 * included.
 */

#ifndef BONSAI_SORTER_RUN_CURSOR_HPP
#define BONSAI_SORTER_RUN_CURSOR_HPP

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <string>

#include "common/contract.hpp"
#include "common/record.hpp"
#include "common/run.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "io/run_store.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class RunCursor
{
  public:
    /** Reads of @p slots pool slots' worth of records. */
    RunCursor(const io::RunStore<RecordT> &store, RunSpan span,
              io::BufferPool<RecordT> &pool, std::uint64_t slots)
        : store_(&store), buf_(pool, slots),
          ctx_("streaming run @" + std::to_string(span.offset) + "+" +
               std::to_string(span.length)),
          next_(span.offset), end_(span.offset + span.length)
    {
    }

    /** The run's next transfer, read into the leased buffer (so it
     *  is valid until the next call); empty once the run is
     *  consumed. */
    std::span<const RecordT>
    next()
    {
        const std::uint64_t n =
            std::min<std::uint64_t>(buf_.capacity(), end_ - next_);
        if (n == 0)
            return {};
        addSeconds(stall_, [&] {
            store_->readAt(next_, buf_.data(), n, ctx_.c_str());
        });
        next_ += n;
        return {buf_.data(), n};
    }

    /** Seconds spent inside the store's readAt. */
    double stallSeconds() const { return stall_; }

  private:
    const io::RunStore<RecordT> *store_;
    io::PoolLease<RecordT> buf_;
    std::string ctx_;
    std::uint64_t next_; ///< next store offset to read
    std::uint64_t end_;  ///< one past the run's last record
    double stall_ = 0.0;
};

/** Pool slots the cursors of one entry tree may hold at once, and
 *  hold now. */
struct LeaseBooking
{
    std::uint64_t limit = 0;
    std::uint64_t held = 0;
};

template <EntryKeyed RecordT>
class EntryCursor
{
  public:
    /**
     * Reads of @p slots pool slots' worth of records, counted against
     * @p booking; entries carry index @p tag plus the record's
     * position in the run, and go out in @p batch, whose size is the
     * most one batch holds.
     */
    EntryCursor(const io::RunStore<RecordT> &store, RunSpan span,
                io::BufferPool<RecordT> &pool, std::uint64_t slots,
                std::uint64_t tag, std::span<KeyEntry> batch,
                LeaseBooking &booking)
        : store_(&store), pool_(&pool), booking_(&booking), slots_(slots),
          tag_(tag), batch_(batch),
          ctx_("streaming run @" + std::to_string(span.offset) + "+" +
               std::to_string(span.length)),
          first_(span.offset), next_(span.offset),
          end_(span.offset + span.length)
    {
    }

    EntryCursor(EntryCursor &&) = default;
    EntryCursor(const EntryCursor &) = delete;
    EntryCursor &operator=(const EntryCursor &) = delete;

    /** The entries of the run's next records, valid until the next
     *  call; empty once the run is consumed.  Reads the next transfer
     *  once the last read's records all have their entries. */
    std::span<const KeyEntry>
    next()
    {
        if (held_.empty() || made_ == held_.back().count) {
            const std::uint64_t n = std::min<std::uint64_t>(
                slots_ * pool_->batchRecords(), end_ - next_);
            if (n == 0)
                return {};
            if (booking_->held + slots_ > booking_->limit)
                contracts::fail(
                    "invariant", "held + slots <= limit", __FILE__,
                    __LINE__,
                    "an entry tree's cursors would hold more than the " +
                        std::to_string(booking_->limit) +
                        " pool slots booked for them");
            Read read{io::PoolLease<RecordT>(*pool_, slots_),
                      next_ - first_, n};
            addSeconds(stall_, [&] {
                store_->readAt(next_, read.lease.data(), n, ctx_.c_str());
            });
            held_.push_back(std::move(read));
            booking_->held += slots_;
            next_ += n;
            made_ = 0;
        }
        const Read &read = held_.back();
        const std::uint64_t n =
            std::min<std::uint64_t>(batch_.size(), read.count - made_);
        const RecordT *const records = read.lease.data() + made_;
        const std::uint64_t index = tag_ + read.first + made_;
        for (std::uint64_t i = 0; i < n; ++i)
            batch_[i] = keyEntry(records[i], index + i);
        made_ += n;
        return batch_.first(n);
    }

    /** Copy the record at position @p pos of the run to @p out, taking
     *  the records in the order they were read; the oldest lease goes
     *  back once its last record is copied. */
    void
    take(std::uint64_t pos, RecordT *out)
    {
        const Read &oldest = held_.front();
        const std::uint64_t at = pos - oldest.first;
        BONSAI_INVARIANT(pos >= oldest.first && at < oldest.count,
                         "records leave a cursor in the order they "
                         "were read");
        std::memcpy(static_cast<void *>(out), oldest.lease.data() + at,
                    sizeof(RecordT));
        if (at + 1 == oldest.count) {
            held_.pop_front();
            booking_->held -= slots_;
        }
    }

    /** Seconds spent inside the store's readAt. */
    double stallSeconds() const { return stall_; }

  private:
    /** One read: its lease, its first record's position in the run
     *  and its record count. */
    struct Read
    {
        io::PoolLease<RecordT> lease;
        std::uint64_t first;
        std::uint64_t count;
    };

    const io::RunStore<RecordT> *store_;
    io::BufferPool<RecordT> *pool_;
    LeaseBooking *booking_;
    std::uint64_t slots_;
    std::uint64_t tag_;
    std::span<KeyEntry> batch_;
    std::string ctx_;
    std::uint64_t first_; ///< the run's first store offset
    std::uint64_t next_;  ///< next store offset to read
    std::uint64_t end_;   ///< one past the run's last record
    /** Reads whose records are not all copied out, oldest first. */
    std::deque<Read> held_;
    std::uint64_t made_ = 0; ///< records of the newest read with entries
    double stall_ = 0.0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_RUN_CURSOR_HPP
