/**
 * @file
 * Fixed-capacity record storage that is never value-initialized, and
 * the allocation policy of every sort-scale buffer.
 *
 * Sort scratch and merge-tree node blocks are always written before
 * they are read, so zero-filling them (what std::vector<RecordT>(n)
 * does, through the records' default member initializers) is a wasted
 * pass over memory.  The storage is an array of std::byte, which
 * implicitly creates the trivially copyable records the sort then
 * assigns into.
 *
 * Allocation policy.  A buffer of at least kHugePageBytes (2 MiB, the
 * x86-64 huge-page size) is an anonymous mapping of its own that
 * starts on a 2 MiB boundary and is advised MADV_HUGEPAGE, so the
 * kernel may back it with transparent huge pages: a 64 MiB sort
 * scratch then takes 32 page faults on its first write instead of
 * 16,384, and every merge stage after that streams through 2 MiB TLB
 * entries.  Smaller buffers (merge-tree arenas, the 1 MiB chunks of a
 * small budget) come from the heap.  The threshold is not a knob.
 *
 * Exact length.  The mapping reserves n + 2 MiB of address space and
 * unmaps the unaligned head and the tail at once, so it keeps the
 * buffer's length rounded up to the base page only.  Huge pages cover
 * the 2 MiB ranges that lie wholly inside it; the tail stays in base
 * pages.  Resident bytes therefore grow only where a buffer is partly
 * written (the last, short chunk of a stream): its last written 2 MiB
 * range may be resident in full, so a buffer holds at most one huge
 * page (2 MiB) more than its written bytes round up to in base pages.
 *
 * Where transparent huge pages are off (mode "never") the advice does
 * nothing and the mapping gets base pages, resident exactly as a heap
 * block of the same size would be.  Builds other than Linux, and
 * AddressSanitizer builds (so that heap redzones still catch an
 * overflow of the buffer), keep every buffer on the heap.
 */

#ifndef BONSAI_COMMON_RECORD_BUFFER_HPP
#define BONSAI_COMMON_RECORD_BUFFER_HPP

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace bonsai
{

/** The huge-page size, and the size from which a buffer is mapped. */
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__)
/** Whether buffers of kHugePageBytes or more are huge-page mappings. */
inline constexpr bool kHugePageBuffers = true;
#else
inline constexpr bool kHugePageBuffers = false;
#endif

/**
 * Hand the pages of freed heap blocks back to the system (glibc's
 * malloc_trim(0); nothing elsewhere).  glibc keeps a freed block's
 * pages resident while any live block lies above it, so buffers under
 * kHugePageBytes that one phase frees would otherwise stay resident
 * beside what the next phase allocates.
 */
void releaseFreedHeap();

namespace detail
{

/** Releases what allocateBufferBytes handed out, exactly once. */
struct BufferRelease
{
    /** The mapping's length; 0 when the bytes came from new[]. */
    std::size_t mappedBytes = 0;

    void operator()(std::byte *bytes) const noexcept;
};

using BufferBytes = std::unique_ptr<std::byte[], BufferRelease>;

/** @p bytes uninitialized bytes under the policy above; throws
 *  std::bad_alloc when the memory cannot be had. */
BufferBytes allocateBufferBytes(std::size_t bytes);

} // namespace detail

template <typename RecordT>
class RecordBuffer
{
    static_assert(std::is_trivially_copyable_v<RecordT> &&
                      std::is_trivially_destructible_v<RecordT>,
                  "records are copied as bytes and never destroyed");
    static_assert(alignof(RecordT) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "new std::byte[] must align the records");

  public:
    RecordBuffer() = default;

    /** Storage for @p records records, uninitialized. */
    explicit RecordBuffer(std::size_t records)
        : bytes_(detail::allocateBufferBytes(records * sizeof(RecordT))),
          size_(records)
    {
    }

    /** A moved-from buffer is empty; the storage moves with its
     *  release, so each mapping is unmapped once. */
    RecordBuffer(RecordBuffer &&other) noexcept
        : bytes_(std::move(other.bytes_)), size_(std::exchange(other.size_, 0))
    {
    }

    RecordBuffer &
    operator=(RecordBuffer &&other) noexcept
    {
        bytes_ = std::move(other.bytes_);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    std::size_t size() const { return size_; }

    /** Whether the storage is a huge-page mapping of its own. */
    bool
    mapped() const
    {
        return bytes_ && bytes_.get_deleter().mappedBytes != 0;
    }

    RecordT *
    data()
    {
        return std::launder(reinterpret_cast<RecordT *>(bytes_.get()));
    }

    const RecordT *
    data() const
    {
        return std::launder(
            reinterpret_cast<const RecordT *>(bytes_.get()));
    }

    /** The first @p records records; the buffer grows (dropping its
     *  contents) when it holds fewer. */
    std::span<RecordT>
    first(std::size_t records)
    {
        if (records > size_)
            *this = RecordBuffer(records);
        return {data(), records};
    }

  private:
    detail::BufferBytes bytes_;
    std::size_t size_ = 0;
};

} // namespace bonsai

#endif // BONSAI_COMMON_RECORD_BUFFER_HPP
