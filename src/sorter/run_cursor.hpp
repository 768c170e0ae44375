/**
 * @file
 * Forward-only view of one stored run: batch-sized reads into one
 * leased pool buffer, the next batch read on the merging thread when
 * the current one runs out.
 *
 * The read is a plain RunStore::readAt — a buffered pread on a
 * FileRunStore, which the kernel's readahead already overlaps with
 * compute, or a memcpy on a MemoryRunStore.  The lease returns its
 * buffer on every path, a throwing constructor included.
 */

#ifndef BONSAI_SORTER_RUN_CURSOR_HPP
#define BONSAI_SORTER_RUN_CURSOR_HPP

#include <algorithm>
#include <cstdint>
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
    RunCursor(const io::RunStore<RecordT> &store, RunSpan span,
              io::BufferPool<RecordT> &pool)
        : store_(&store), buf_(pool),
          ctx_("streaming run @" + std::to_string(span.offset) + "+" +
               std::to_string(span.length)),
          next_(span.offset), end_(span.offset + span.length)
    {
        refill();
    }

    /** No more records in [span.offset, span.offset + span.length). */
    bool exhausted() const { return pos_ >= len_; }

    const RecordT &head() const { return buf_.data()[pos_]; }

    void
    advance()
    {
        if (++pos_ == len_)
            refill();
    }

    /** Seconds spent inside the store's readAt. */
    double stallSeconds() const { return stall_; }

  private:
    void
    refill()
    {
        pos_ = 0;
        len_ = std::min<std::uint64_t>(buf_.capacity(), end_ - next_);
        if (len_ == 0)
            return; // run fully consumed: exhausted() is now true
        addSeconds(stall_, [&] {
            store_->readAt(next_, buf_.data(), len_, ctx_.c_str());
        });
        next_ += len_;
    }

    const io::RunStore<RecordT> *store_;
    io::PoolLease<RecordT> buf_;
    std::string ctx_;
    std::uint64_t next_; ///< next store offset to read
    std::uint64_t end_;  ///< one past the run's last record
    std::uint64_t len_ = 0;
    std::uint64_t pos_ = 0;
    double stall_ = 0.0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_RUN_CURSOR_HPP
