/**
 * @file
 * RAII lease of one io::BufferPool buffer — what RunCursor and
 * StreamWriter hold their batch buffer through.
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

    /** Acquire one buffer from @p pool, blocking while the pool is
     *  exhausted; released when the lease dies. */
    explicit PoolLease(BufferPool<RecordT> &pool)
        : pool_(&pool), buf_(pool.acquire())
    {
    }

    PoolLease(PoolLease &&other) noexcept
        : pool_(other.pool_), buf_(std::move(other.buf_)),
          len_(other.len_)
    {
        other.pool_ = nullptr;
        other.len_ = 0;
    }

    PoolLease &
    operator=(PoolLease &&other) noexcept
    {
        if (this != &other) {
            reset();
            pool_ = other.pool_;
            buf_ = std::move(other.buf_);
            len_ = other.len_;
            other.pool_ = nullptr;
            other.len_ = 0;
        }
        return *this;
    }

    PoolLease(const PoolLease &) = delete;
    PoolLease &operator=(const PoolLease &) = delete;

    ~PoolLease() { reset(); }

    /** True when a buffer is held. */
    bool held() const { return pool_ != nullptr; }

    RecordT *data() { return buf_.data(); }
    const RecordT *data() const { return buf_.data(); }

    /** Record capacity of the held buffer (the pool's batch size). */
    std::uint64_t capacity() const { return buf_.size(); }

    /** Records currently meaningful in the buffer — payload metadata
     *  carried with the lease so queue consumers know the fill. */
    std::uint64_t length() const { return len_; }

    void setLength(std::uint64_t len) { len_ = len; }

    /** Return the buffer to its pool early (idempotent). */
    void
    reset()
    {
        if (pool_ != nullptr) {
            pool_->release(std::move(buf_));
            pool_ = nullptr;
        }
        len_ = 0;
    }

  private:
    BufferPool<RecordT> *pool_ = nullptr;
    std::vector<RecordT> buf_;
    std::uint64_t len_ = 0;
};

} // namespace bonsai::io

#endif // BONSAI_IO_POOL_LEASE_HPP
