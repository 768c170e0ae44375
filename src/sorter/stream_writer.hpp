/**
 * @file
 * Batch writer: push() fills one leased pool buffer and writes it to
 * the sink on the pushing thread when it is full.  Writes land in
 * push order.
 *
 * The write is a plain RecordSink::write — a buffered pwrite on a
 * file sink or run store, which the kernel writes behind.  finish()
 * must be called on the normal path to write the last partial batch;
 * an unwinding writer drops it, and its lease returns the buffer.
 */

#ifndef BONSAI_SORTER_STREAM_WRITER_HPP
#define BONSAI_SORTER_STREAM_WRITER_HPP

#include <cstdint>

#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "io/stream.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class StreamWriter
{
  public:
    StreamWriter(io::RecordSink<RecordT> &sink,
                 io::BufferPool<RecordT> &pool)
        : sink_(&sink), buf_(pool)
    {
    }

    void
    push(const RecordT &rec)
    {
        buf_.data()[len_++] = rec;
        if (len_ == buf_.capacity())
            flushBatch();
    }

    /** Write the last partial batch to the sink. */
    void
    finish()
    {
        if (len_ > 0)
            flushBatch();
    }

    /** Seconds spent inside the sink's write. */
    double stallSeconds() const { return stall_; }

  private:
    void
    flushBatch()
    {
        addSeconds(stall_, [&] { sink_->write(buf_.data(), len_); });
        len_ = 0;
    }

    io::RecordSink<RecordT> *sink_;
    io::PoolLease<RecordT> buf_;
    std::uint64_t len_ = 0;
    double stall_ = 0.0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_STREAM_WRITER_HPP
