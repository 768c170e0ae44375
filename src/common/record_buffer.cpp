/**
 * @file
 * RecordBuffer's storage: huge-page mappings for sort-scale buffers,
 * the heap for the rest (the policy is in record_buffer.hpp).
 */

#include "common/record_buffer.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace bonsai
{

void
releaseFreedHeap()
{
#if defined(__GLIBC__)
    ::malloc_trim(0);
#endif
}

} // namespace bonsai

namespace bonsai::detail
{

void
BufferRelease::operator()(std::byte *bytes) const noexcept
{
#if defined(__linux__)
    if (mappedBytes != 0) {
        ::munmap(bytes, mappedBytes);
        return;
    }
#endif
    delete[] bytes;
}

BufferBytes
allocateBufferBytes(std::size_t bytes)
{
#if defined(__linux__)
    if (kHugePageBuffers && bytes >= kHugePageBytes) {
        if (bytes > SIZE_MAX - 2 * kHugePageBytes)
            throw std::bad_alloc();
        const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        const std::size_t length = (bytes + page - 1) / page * page;
        // Reserve one huge page more than the length, keep the
        // 2 MiB-aligned length inside it and return the rest now.
        void *raw = ::mmap(nullptr, length + kHugePageBytes,
                           PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (raw == MAP_FAILED)
            throw std::bad_alloc();
        auto *const first = static_cast<std::byte *>(raw);
        const auto address = reinterpret_cast<std::uintptr_t>(raw);
        const std::size_t head =
            (kHugePageBytes - address % kHugePageBytes) % kHugePageBytes;
        std::byte *const aligned = first + head;
        if (head != 0)
            ::munmap(first, head);
        ::munmap(aligned + length, kHugePageBytes - head);
        // Advice only: where transparent huge pages are off it
        // fails or does nothing, and the mapping keeps base pages.
        ::madvise(aligned, length, MADV_HUGEPAGE);
        return BufferBytes(aligned, BufferRelease{length});
    }
#endif
    return BufferBytes(new std::byte[bytes]);
}

} // namespace bonsai::detail
