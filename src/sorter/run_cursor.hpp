/**
 * @file
 * Forward-only view of one stored run: reads of k batches (k * b
 * records, the phase-2 pass's transfer) into one leased k-slot pool
 * buffer, each read on the merging thread when the merge tree's leaf
 * for the run runs dry (sorter/merge_tree.hpp).  The last read of a
 * run is short when the run is not a multiple of k * b.
 *
 * The read is a plain RunStore::readAt — a buffered pread on a
 * FileRunStore, which the kernel's readahead already overlaps with
 * compute, or a memcpy on a MemoryRunStore.  The lease returns its
 * buffer on every path, a merge unwinding from a failed read
 * included.
 */

#ifndef BONSAI_SORTER_RUN_CURSOR_HPP
#define BONSAI_SORTER_RUN_CURSOR_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

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

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_RUN_CURSOR_HPP
