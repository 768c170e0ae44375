/** @file Unit tests for RecordBuffer's allocation policy: huge-page
 *  mappings for sort-scale buffers, the heap for the rest. */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

#include "common/record.hpp"
#include "common/record_buffer.hpp"

namespace bonsai
{
namespace
{

constexpr std::size_t kHugePageRecords = kHugePageBytes / sizeof(Record);

std::uintptr_t
pageBytes()
{
    return static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
}

std::uintptr_t
addressOf(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p);
}

/** @p bytes rounded up to whole base pages. */
std::uintptr_t
roundUpToPage(std::uintptr_t bytes)
{
    return (bytes + pageBytes() - 1) / pageBytes() * pageBytes();
}

/** Whether the page holding @p p is mapped (mincore fails with ENOMEM
 *  on an unmapped one). */
bool
pageMapped(const void *p)
{
    void *const page =
        reinterpret_cast<void *>(addressOf(p) / pageBytes() * pageBytes());
    unsigned char resident = 0;
    return ::mincore(page, pageBytes(), &resident) == 0;
}

/** The /proc/self/smaps block of the VMA holding @p p, or "" when
 *  none does.  Its first line is "start-end perms ...". */
std::string
smapsBlock(const void *p)
{
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    std::string block;
    bool inside = false;
    while (std::getline(smaps, line)) {
        std::uintptr_t lo = 0;
        std::uintptr_t hi = 0;
        char dash = 0;
        std::istringstream head(line);
        if (head >> std::hex >> lo >> dash >> hi && dash == '-') {
            if (inside)
                return block;
            inside = lo <= addressOf(p) && addressOf(p) < hi;
        }
        if (inside)
            block += line + '\n';
    }
    return block;
}

/** The value of @p field in an smaps block, or -1 when absent. */
long
smapsField(const std::string &block, const std::string &field)
{
    const std::size_t at = block.find('\n' + field + ':');
    if (at == std::string::npos)
        return -1;
    return std::stol(block.substr(at + field.size() + 2));
}

Record
marker(std::uint64_t i)
{
    return Record{i * 0x9E3779B97F4A7C15ULL, i};
}

void
stamp(RecordBuffer<Record> &buf)
{
    buf.data()[0] = marker(1);
    buf.data()[buf.size() - 1] = marker(buf.size());
}

bool
stamped(const RecordBuffer<Record> &buf)
{
    return buf.data()[0] == marker(1) &&
           buf.data()[buf.size() - 1] == marker(buf.size());
}

TEST(RecordBuffer, SortScaleBufferStartsOnAHugePageBoundary)
{
    if (!kHugePageBuffers)
        GTEST_SKIP() << "this build keeps every buffer on the heap "
                        "(not Linux, or AddressSanitizer)";
    // At the threshold, a length that is no multiple of 2 MiB, and
    // the in-memory sort's 64 MiB scratch.
    const std::size_t sizes[] = {kHugePageRecords,
                                 3 * kHugePageRecords / 2 + 1,
                                 32 * kHugePageRecords};
    for (const std::size_t records : sizes) {
        RecordBuffer<Record> buf(records);
        ASSERT_TRUE(buf.mapped()) << records;
        EXPECT_EQ(addressOf(buf.data()) % kHugePageBytes, 0u) << records;
        stamp(buf);
        EXPECT_TRUE(stamped(buf));
        // The mapping keeps the buffer's length, rounded up to the
        // base page only: the rest of the reservation is returned, so
        // the page past its end is unmapped.
        const std::uintptr_t length = roundUpToPage(records * sizeof(Record));
        const auto *const bytes =
            reinterpret_cast<const std::byte *>(buf.data());
        EXPECT_TRUE(pageMapped(bytes + length - 1)) << records;
        EXPECT_FALSE(pageMapped(bytes + length)) << records;
    }
}

TEST(RecordBuffer, SmallerBufferComesFromTheHeap)
{
    EXPECT_FALSE(RecordBuffer<Record>().mapped());
    EXPECT_FALSE(RecordBuffer<Record>(0).mapped());
    RecordBuffer<Record> buf(kHugePageRecords - 1);
    EXPECT_FALSE(buf.mapped());
    stamp(buf);
    EXPECT_TRUE(stamped(buf));
}

TEST(RecordBuffer, MovesReleaseEachMappingOnce)
{
    const std::size_t records = 2 * kHugePageRecords;
    RecordBuffer<Record> a(records);
    EXPECT_EQ(a.mapped(), kHugePageBuffers);
    stamp(a);
    const Record *const storage = a.data();

    RecordBuffer<Record> c;
    {
        RecordBuffer<Record> b(std::move(a));
        EXPECT_EQ(a.size(), 0u);
        EXPECT_EQ(a.data(), nullptr);
        EXPECT_FALSE(a.mapped());
        EXPECT_EQ(b.data(), storage);
        EXPECT_EQ(b.size(), records);
        c = std::move(b);
        EXPECT_EQ(b.size(), 0u);
        EXPECT_EQ(b.data(), nullptr);
    }
    // The moved-from buffers are gone; the storage is still c's.
    EXPECT_EQ(c.data(), storage);
    EXPECT_EQ(c.mapped(), kHugePageBuffers);
    EXPECT_TRUE(pageMapped(storage));
    EXPECT_TRUE(stamped(c));

    // Move-assigning over c releases its storage; the new buffer is
    // made before the old one goes, so it cannot reuse the range.
    c = RecordBuffer<Record>(records);
    EXPECT_NE(c.data(), storage);
    if (kHugePageBuffers) {
        EXPECT_FALSE(pageMapped(storage));
    }
    std::swap(a, c);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(a.size(), records);
    stamp(a);
    EXPECT_TRUE(stamped(a));
}

TEST(RecordBuffer, GrowingReleasesTheOldMapping)
{
    RecordBuffer<Record> buf(kHugePageRecords);
    const Record *const storage = buf.data();
    // No growth within the size.
    EXPECT_EQ(buf.first(kHugePageRecords / 2).data(), storage);
    EXPECT_EQ(buf.first(kHugePageRecords).data(), storage);
    EXPECT_EQ(buf.size(), kHugePageRecords);

    const std::span<Record> grown = buf.first(4 * kHugePageRecords);
    EXPECT_EQ(buf.size(), 4 * kHugePageRecords);
    EXPECT_EQ(grown.data(), buf.data());
    EXPECT_NE(buf.data(), storage);
    EXPECT_EQ(buf.mapped(), kHugePageBuffers);
    if (kHugePageBuffers) {
        EXPECT_FALSE(pageMapped(storage));
        EXPECT_EQ(addressOf(buf.data()) % kHugePageBytes, 0u);
    }
    stamp(buf);
    EXPECT_TRUE(stamped(buf));
}

TEST(RecordBuffer, SortScaleBufferIsHugePageEligible)
{
    if (!kHugePageBuffers)
        GTEST_SKIP() << "this build keeps every buffer on the heap "
                        "(not Linux, or AddressSanitizer)";
    std::ifstream enabled("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string mode;
    std::getline(enabled, mode);
    if (mode.empty())
        GTEST_SKIP() << "transparent huge pages are not available here";
    if (mode.find("[never]") != std::string::npos)
        GTEST_SKIP() << "transparent huge pages are off (" << mode
                     << "), so buffers keep base pages";
    RecordBuffer<Record> buf(4 * kHugePageRecords);
    stamp(buf);
    const std::string block = smapsBlock(buf.data());
    ASSERT_FALSE(block.empty());
    const long eligible = smapsField(block, "THPeligible");
    if (eligible < 0)
        GTEST_SKIP() << "this kernel's smaps has no THPeligible field";
    // Eligible, not granted: whether the kernel hands out a huge page
    // depends on fragmentation, so AnonHugePages is not asserted.
    EXPECT_EQ(eligible, 1) << "THP mode " << mode << '\n' << block;
}

} // namespace
} // namespace bonsai
