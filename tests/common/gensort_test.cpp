/** @file Unit tests for the gensort-compatible generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/gensort.hpp"
#include "common/random.hpp"

namespace bonsai
{
namespace
{

TEST(Gensort, RecordSizeMatchesSortBenchmark)
{
    EXPECT_EQ(GensortRecord::kBytes, 100u);
    EXPECT_EQ(GensortRecord::kKeyBytes, 10u);
    EXPECT_EQ(GensortRecord::kValueBytes, 90u);
}

TEST(Gensort, DeterministicAndSkipAheadConsistent)
{
    GensortGenerator gen(1234);
    const auto all = gen.generate(0, 100);
    const auto tail = gen.generate(50, 50);
    ASSERT_EQ(tail.size(), 50u);
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_EQ(all[50 + i].bytes, tail[i].bytes);
}

TEST(Gensort, PackPreservesKeyOrdering)
{
    GensortGenerator gen(99);
    auto recs = gen.generate(0, 2000);
    auto packed = packGensort(recs);
    std::sort(recs.begin(), recs.end());
    std::sort(packed.begin(), packed.end());
    const auto repacked = packGensort(recs);
    for (std::size_t i = 0; i < packed.size(); ++i) {
        EXPECT_EQ(packed[i].keyHi, repacked[i].keyHi);
        EXPECT_EQ(packed[i].keyLo, repacked[i].keyLo);
    }
}

TEST(Gensort, PackedRecordsAreNeverTerminal)
{
    GensortGenerator gen(5);
    for (const auto &rec : gen.generate(0, 500))
        EXPECT_FALSE(packGensort(rec).isTerminal());
}

TEST(Gensort, Hash48Is48Bits)
{
    GensortGenerator gen(8);
    for (const auto &rec : gen.generate(0, 100)) {
        const std::uint64_t h = hash48(
            rec.bytes.data() + GensortRecord::kKeyBytes,
            GensortRecord::kValueBytes);
        EXPECT_EQ(h >> 48, 0u);
    }
}

TEST(Gensort, Hash48SensitiveToEveryBytePosition)
{
    std::array<std::uint8_t, 16> base{};
    const std::uint64_t h0 = hash48(base.data(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        auto copy = base;
        copy[i] ^= 0x5A;
        EXPECT_NE(hash48(copy.data(), copy.size()), h0)
            << "byte " << i;
    }
}

TEST(Gensort, ValsortSummaryDetectsUnsortedInput)
{
    GensortGenerator gen(3);
    auto recs = gen.generate(0, 1000);
    const ValsortSummary before = valsortSummary(recs);
    EXPECT_EQ(before.records, 1000u);
    EXPECT_FALSE(before.sorted); // random input
    std::sort(recs.begin(), recs.end());
    const ValsortSummary after = valsortSummary(recs);
    EXPECT_TRUE(after.sorted);
    EXPECT_EQ(after.unorderedAt, 0u);
    // Checksum is order-independent: sorted output must match input.
    EXPECT_EQ(after.checksum, before.checksum);
    EXPECT_EQ(after.records, before.records);
}

TEST(Gensort, ValsortSummaryChecksumDetectsCorruption)
{
    GensortGenerator gen(4);
    auto recs = gen.generate(0, 200);
    const ValsortSummary before = valsortSummary(recs);
    recs[100].bytes[50] ^= 0xFF;
    EXPECT_NE(valsortSummary(recs).checksum, before.checksum);
}

TEST(Gensort, ValsortSummaryCountsDuplicates)
{
    GensortGenerator gen(5);
    auto recs = gen.generate(0, 100);
    recs[10] = recs[11] = recs[12]; // three equal keys
    std::sort(recs.begin(), recs.end());
    const ValsortSummary summary = valsortSummary(recs);
    EXPECT_GE(summary.duplicateKeys, 2u);
}

/** A valsort-style reference: memcmp over the 10 key bytes. */
bool
memcmpLess(const GensortRecord &a, const GensortRecord &b)
{
    return std::memcmp(a.bytes.data(), b.bytes.data(),
                       GensortRecord::kKeyBytes) < 0;
}

GensortRecord
randomRecord(SplitMix64 &rng)
{
    GensortRecord r;
    for (std::uint8_t &b : r.bytes)
        b = static_cast<std::uint8_t>(rng.next() >> 56);
    return r;
}

/** operator< must agree with memcmp both ways round on every pair. */
void
expectOrderMatchesMemcmp(
    const std::vector<std::pair<GensortRecord, GensortRecord>> &pairs)
{
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto &[a, b] = pairs[i];
        ASSERT_EQ(a < b, memcmpLess(a, b)) << "pair " << i;
        ASSERT_EQ(b < a, memcmpLess(b, a)) << "pair " << i;
    }
}

TEST(Gensort, OrderMatchesMemcmpOnKeysThatDifferInOneByte)
{
    // Each key byte in turn takes both sides of 0x7f/0x80 (a signed
    // byte compare would flip them) and the extremes 0x00 and 0xff.
    SplitMix64 rng(10);
    std::vector<std::pair<GensortRecord, GensortRecord>> pairs;
    const std::pair<std::uint8_t, std::uint8_t> values[] = {
        {0x00, 0x01}, {0x7f, 0x80}, {0x00, 0xff}, {0xfe, 0xff}};
    for (std::size_t pos = 0; pos < GensortRecord::kKeyBytes; ++pos) {
        for (const auto &[lo, hi] : values) {
            GensortRecord a = randomRecord(rng);
            GensortRecord b = a;
            a.bytes[pos] = lo;
            b.bytes[pos] = hi;
            pairs.emplace_back(a, b);
        }
    }
    expectOrderMatchesMemcmp(pairs);
}

TEST(Gensort, OrderMatchesMemcmpOnRandomPairs)
{
    SplitMix64 rng(11);
    std::vector<std::pair<GensortRecord, GensortRecord>> pairs;
    for (int i = 0; i < 20'000; ++i) {
        GensortRecord a = randomRecord(rng);
        GensortRecord b = randomRecord(rng);
        // Share a random-length leading part of the key, so every
        // byte is the first to differ in some pairs.
        const std::size_t shared = rng.nextBounded(GensortRecord::kKeyBytes);
        std::memcpy(b.bytes.data(), a.bytes.data(), shared);
        pairs.emplace_back(a, b);
    }
    expectOrderMatchesMemcmp(pairs);
}

TEST(Gensort, EqualKeysWithDifferentValuesAreUnordered)
{
    SplitMix64 rng(12);
    std::vector<std::pair<GensortRecord, GensortRecord>> pairs;
    for (int i = 0; i < 1000; ++i) {
        GensortRecord a = randomRecord(rng);
        GensortRecord b = randomRecord(rng);
        std::memcpy(b.bytes.data(), a.bytes.data(),
                    GensortRecord::kKeyBytes);
        pairs.emplace_back(a, b);
    }
    expectOrderMatchesMemcmp(pairs);
    for (const auto &[a, b] : pairs)
        EXPECT_FALSE(a < b || b < a);
}

TEST(Gensort, KeyPrefixIsMonotone)
{
    // prefix(a) < prefix(b) implies a < b, and a < b implies
    // prefix(a) <= prefix(b), over random pairs and pairs whose keys
    // tie in bytes 0-7 or differ only in byte 7 or bytes 8-9.
    SplitMix64 rng(13);
    for (int i = 0; i < 20'000; ++i) {
        GensortRecord a = randomRecord(rng);
        GensortRecord b = randomRecord(rng);
        const std::size_t shared = rng.nextBounded(GensortRecord::kKeyBytes);
        std::memcpy(b.bytes.data(), a.bytes.data(), shared);
        if (i % 4 == 0)
            std::memcpy(b.bytes.data(), a.bytes.data(), 8);
        for (const auto &[x, y] : {std::pair{a, b}, std::pair{b, a}}) {
            if (keyPrefix(x) < keyPrefix(y)) {
                ASSERT_TRUE(x < y) << "pair " << i;
            }
            if (x < y) {
                ASSERT_LE(keyPrefix(x), keyPrefix(y)) << "pair " << i;
            }
        }
    }
    GensortRecord r;
    for (std::size_t j = 0; j < 8; ++j)
        r.bytes[j] = static_cast<std::uint8_t>(0x10 + j);
    EXPECT_EQ(keyPrefix(r), 0x1011121314151617ULL); // big-endian
}

/** Entries of @p a and @p b, named by the distinct @p ia and @p ib,
 *  must order as the records do, both ways round. */
void
expectEntryOrderMatches(const GensortRecord &a, const GensortRecord &b,
                        std::uint64_t ia, std::uint64_t ib)
{
    const KeyEntry ea = keyEntry(a, ia);
    const KeyEntry eb = keyEntry(b, ib);
    ASSERT_EQ(ea < eb, a < b) << "indexes " << ia << ", " << ib;
    ASSERT_EQ(eb < ea, b < a) << "indexes " << ia << ", " << ib;
}

TEST(Gensort, EntriesOrderAsTheirRecords)
{
    // Random pairs whose keys share a random-length lead; pairs that
    // differ only in byte 8 or only in byte 9, on both sides of
    // 0x7f/0x80; and equal keys, which must compare equal whatever
    // their indexes — the smaller index on either side, the largest
    // index included.
    static_assert(EntryKeyed<GensortRecord>);
    static_assert(sizeof(KeyEntry) == 16);
    SplitMix64 rng(14);
    const std::uint64_t far = KeyEntry::kMaxIndex;
    for (int i = 0; i < 20'000; ++i) {
        const GensortRecord a = randomRecord(rng);
        GensortRecord b = randomRecord(rng);
        std::memcpy(b.bytes.data(), a.bytes.data(),
                    rng.nextBounded(GensortRecord::kKeyBytes));
        const std::uint64_t ia = rng.next() & far;
        expectEntryOrderMatches(a, b, ia, ia ^ 1);
        expectEntryOrderMatches(a, b, far - ia, ia);
    }
    for (const std::size_t pos : {8u, 9u}) {
        for (const auto &[lo, hi] :
             {std::pair<int, int>{0x00, 0x01}, {0x7f, 0x80}, {0xfe, 0xff}}) {
            GensortRecord a = randomRecord(rng);
            GensortRecord b = a;
            a.bytes[pos] = static_cast<std::uint8_t>(lo);
            b.bytes[pos] = static_cast<std::uint8_t>(hi);
            // The larger key carries the smaller index, and back.
            expectEntryOrderMatches(a, b, far, 0);
            expectEntryOrderMatches(a, b, 0, far);
            ASSERT_TRUE(keyEntry(a, far) < keyEntry(b, 0)) << pos;
        }
    }
    for (int i = 0; i < 1000; ++i) {
        const GensortRecord a = randomRecord(rng);
        GensortRecord b = randomRecord(rng);
        std::memcpy(b.bytes.data(), a.bytes.data(),
                    GensortRecord::kKeyBytes);
        const std::uint64_t ia = rng.next() & far;
        const std::uint64_t ib = rng.next() & far;
        EXPECT_FALSE(keyEntry(a, ia) < keyEntry(b, ib)) << i;
        EXPECT_FALSE(keyEntry(b, ib) < keyEntry(a, ia)) << i;
    }
}

TEST(Gensort, EntryLayoutIsKeyWordThenTailAboveIndex)
{
    GensortRecord r;
    for (std::size_t j = 0; j < GensortRecord::kKeyBytes; ++j)
        r.bytes[j] = static_cast<std::uint8_t>(0x10 + j);
    const KeyEntry e = keyEntry(r, 0x123456789ABCULL);
    EXPECT_EQ(e.key, 0x1011121314151617ULL);
    EXPECT_EQ(e.tail, 0x1819123456789ABCULL);
    EXPECT_EQ(e.keyTail(), 0x1819u);
    EXPECT_EQ(e.index(), 0x123456789ABCULL);
}

TEST(Gensort, KeysLookUniform)
{
    GensortGenerator gen(77);
    const auto recs = gen.generate(0, 4000);
    // First key byte should span most of the byte range.
    std::array<int, 256> seen{};
    for (const auto &rec : recs)
        ++seen[rec.bytes[0]];
    int nonzero = 0;
    for (int c : seen)
        nonzero += (c > 0);
    EXPECT_GT(nonzero, 200);
}

} // namespace
} // namespace bonsai
