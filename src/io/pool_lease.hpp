/**
 * @file
 * RAII lease of one io::BufferPool buffer of k slots (k * b records,
 * one contiguous buffer) — what a RunCursor and a phase-2 merge's
 * output batch hold their buffer through.
 *
 * A raw acquire()d std::vector owes the pool a release(); a task that
 * throws between the acquire and the release would leak the pool's
 * outstanding count.  PoolLease makes the release part of the
 * holder's destructor, so an exception unwinding a merge task, a
 * half-constructed cursor, or a normal end of use all return the
 * buffer — BufferPool.outstanding() reaches zero on every unwind path
 * by construction.
 *
 * Movable, not copyable: exactly one owner at a time, like the buffer
 * itself.
 */

#ifndef BONSAI_IO_POOL_LEASE_HPP
#define BONSAI_IO_POOL_LEASE_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "io/buffer_pool.hpp"

namespace bonsai::io
{

template <typename RecordT>
class PoolLease
{
  public:
    /** An empty lease (no buffer, no pool). */
    PoolLease() = default;

    /** Acquire a buffer of @p slots slots from @p pool (throws when
     *  the pool has fewer free); released when the lease dies. */
    explicit PoolLease(BufferPool<RecordT> &pool, std::uint64_t slots = 1)
        : pool_(&pool), buf_(pool.acquire(slots))
    {
    }

    PoolLease(PoolLease &&other) noexcept
        : pool_(other.pool_), buf_(std::move(other.buf_))
    {
        other.pool_ = nullptr;
    }

    PoolLease &
    operator=(PoolLease &&other) noexcept
    {
        if (this != &other) {
            reset();
            pool_ = other.pool_;
            buf_ = std::move(other.buf_);
            other.pool_ = nullptr;
        }
        return *this;
    }

    PoolLease(const PoolLease &) = delete;
    PoolLease &operator=(const PoolLease &) = delete;

    ~PoolLease() { reset(); }

    RecordT *data() { return buf_.data(); }
    const RecordT *data() const { return buf_.data(); }

    /** Record capacity of the held buffer (slots * batch size). */
    std::uint64_t capacity() const { return buf_.size(); }

    /** Return the buffer to its pool early (idempotent). */
    void
    reset()
    {
        if (pool_ != nullptr) {
            pool_->release(std::move(buf_));
            pool_ = nullptr;
        }
    }

  private:
    BufferPool<RecordT> *pool_ = nullptr;
    std::vector<RecordT> buf_;
};

} // namespace bonsai::io

#endif // BONSAI_IO_POOL_LEASE_HPP
