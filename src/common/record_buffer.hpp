/**
 * @file
 * Fixed-capacity record storage that is never value-initialized.
 *
 * Sort scratch and merge-tree node blocks are always written before
 * they are read, so zero-filling them (what std::vector<RecordT>(n)
 * does, through the records' default member initializers) is a wasted
 * pass over memory.  The storage is an array of std::byte, which
 * implicitly creates the trivially copyable records the sort then
 * assigns into.
 */

#ifndef BONSAI_COMMON_RECORD_BUFFER_HPP
#define BONSAI_COMMON_RECORD_BUFFER_HPP

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

namespace bonsai
{

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
        : bytes_(std::make_unique_for_overwrite<std::byte[]>(
              records * sizeof(RecordT))),
          size_(records)
    {
    }

    std::size_t size() const { return size_; }

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
    std::unique_ptr<std::byte[]> bytes_;
    std::size_t size_ = 0;
};

} // namespace bonsai

#endif // BONSAI_COMMON_RECORD_BUFFER_HPP
