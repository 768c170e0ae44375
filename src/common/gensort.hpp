/**
 * @file
 * gensort-compatible workload generator (Jim Gray sort benchmark).
 *
 * The paper benchmarks 100-byte records (10-byte key, 90-byte value)
 * produced by gensort, then hashes the 90-byte value down to a 6-byte
 * index so that a (10-byte key, 6-byte value) pair fits a 16-byte AMT
 * record (Section VI-A).  We reproduce that flow: generate 100-byte
 * records, hash the payload to 48 bits, and pack into Record128
 * (80-bit key in two limbs, 48-bit value).  The in-memory sort takes
 * the same trick further: it moves each record's KeyEntry — the
 * 10-byte key and the record's 48-bit index (keyEntry) — through the
 * presort and every merge stage, and the record itself once, by
 * index, at the end.
 */

#ifndef BONSAI_COMMON_GENSORT_HPP
#define BONSAI_COMMON_GENSORT_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/record.hpp"

namespace bonsai
{

struct GensortRecord;
std::uint64_t keyPrefix(const GensortRecord &rec);

/** One 100-byte sort-benchmark record: 10-byte key, 90-byte value. */
struct GensortRecord
{
    static constexpr std::size_t kKeyBytes = 10;
    static constexpr std::size_t kValueBytes = 90;
    static constexpr std::size_t kBytes = kKeyBytes + kValueBytes;

    std::array<std::uint8_t, kBytes> bytes{};

    /** Lexicographic key comparison, as valsort does: bytes 0-7 as
     *  one big-endian word, then bytes 8-9. */
    friend bool
    operator<(const GensortRecord &a, const GensortRecord &b)
    {
        const std::uint64_t pa = keyPrefix(a);
        const std::uint64_t pb = keyPrefix(b);
        if (pa != pb)
            return pa < pb;
        return (a.bytes[8] << 8 | a.bytes[9]) <
               (b.bytes[8] << 8 | b.bytes[9]);
    }

    /** The reserved all-zero record (Section V-B flush sentinel) —
     *  lets 100-byte records flow through the streaming sorter, whose
     *  boundary rejects terminals in user data. */
    bool
    isTerminal() const
    {
        for (const std::uint8_t b : bytes) {
            if (b != 0)
                return false;
        }
        return true;
    }
};

/** Key bytes 0-7 as a big-endian word: word 0 of the record's
 *  KeyEntry, and what decides a comparison unless it ties. */
inline std::uint64_t
keyPrefix(const GensortRecord &rec)
{
    std::uint64_t word;
    std::memcpy(&word, rec.bytes.data(), sizeof word);
    if constexpr (std::endian::native == std::endian::little)
        word = __builtin_bswap64(word);
    return word;
}

/** @p rec as the 16-byte entry the in-memory sort moves (EntryKeyed):
 *  its 10-byte key and @p index, which must fit in 48 bits. */
inline KeyEntry
keyEntry(const GensortRecord &rec, std::uint64_t index)
{
    const std::uint64_t tail =
        std::uint64_t{rec.bytes[8]} << 8 | rec.bytes[9];
    return {keyPrefix(rec), tail << KeyEntry::kIndexBits | index};
}

/** FNV-1a hash of a byte range, truncated to 48 bits (the paper's
 *  90-byte-value to 6-byte-index reduction). */
std::uint64_t hash48(const std::uint8_t *data, std::size_t len);

/**
 * Deterministic generator of gensort-style records.  Keys are uniform
 * random bytes (never all-zero, so the packed record is never the
 * reserved terminal); values embed the record index followed by
 * generator output, mimicking gensort's binary mode.
 */
class GensortGenerator
{
  public:
    explicit GensortGenerator(std::uint64_t seed) : seed_(seed) {}

    /** Generate records [first, first + count). */
    std::vector<GensortRecord> generate(std::uint64_t first,
                                        std::uint64_t count) const;

  private:
    std::uint64_t seed_;
};

/**
 * Pack a 100-byte record into the 16-byte AMT record: 80-bit key split
 * into keyHi (first 8 bytes, big-endian) and keyLo (last 2 key bytes),
 * value = 48-bit payload hash.  Ordering of packed records equals
 * lexicographic ordering of the original 10-byte keys.
 */
Record128 packGensort(const GensortRecord &rec);

/** Pack a whole vector. */
std::vector<Record128> packGensort(const std::vector<GensortRecord> &recs);

/**
 * valsort-style output summary: record count, order check, duplicate
 * count, and an order-independent checksum over all record bytes (so a
 * sorted output can be validated against the input's summary).
 */
struct ValsortSummary
{
    std::uint64_t records = 0;
    std::uint64_t checksum = 0;     ///< sum of per-record byte sums
    std::uint64_t duplicateKeys = 0; ///< adjacent equal keys (sorted)
    std::uint64_t unorderedAt = 0;  ///< first out-of-order index + 1
    bool sorted = true;
};

/** Compute the summary of @p recs (duplicates meaningful if sorted). */
ValsortSummary valsortSummary(const std::vector<GensortRecord> &recs);

/**
 * Incremental valsort computation: feed record batches in file order
 * and read the summary at any point.  The order and duplicate checks
 * only ever compare adjacent records, so one carried record is all
 * the state a whole-file validation needs — a validator can stream
 * through a bounded batch buffer instead of materializing the file.
 */
class ValsortAccumulator
{
  public:
    /** Fold the next @p count records (in file order) in. */
    void feed(const GensortRecord *recs, std::uint64_t count);

    /** Summary over everything fed so far. */
    const ValsortSummary &summary() const { return summary_; }

  private:
    ValsortSummary summary_;
    GensortRecord prev_; ///< last record of the previous feed()
    bool havePrev_ = false;
};

} // namespace bonsai

#endif // BONSAI_COMMON_GENSORT_HPP
