/**
 * @file
 * Record types flowing through the merge-tree datapath.
 *
 * The paper's AMT moves fixed-width records (32-bit integers in most
 * experiments, 16-byte key/value pairs for the gensort benchmark, and up
 * to 512-bit records in general).  The simulator represents a record as a
 * 64-bit key plus a 64-bit value; the *modeled* record width in bytes is
 * an independent model parameter (ArrayParams::record_width), so the same
 * simulated datapath can stand in for any width up to 512 bits.
 *
 * Following the paper (Section V-B), one reserved "terminal" record is fed
 * between adjacent sorted runs to flush merger state in a single cycle.
 * The paper reserves the value zero; we do the same: the all-zero record
 * is the terminal record and must not appear in user data (the bundled
 * generators never produce it).
 *
 * KeyEntry is the host sort's stand-in for a record whose key is wider
 * than one word (a gensort record): the 10-byte key and a 48-bit
 * index in 16 bytes, the paper's 10-byte key and 6-byte index.  It is
 * not a record — it has no terminal — but the in-memory sort moves it
 * through the same kernels.
 */

#ifndef BONSAI_COMMON_RECORD_HPP
#define BONSAI_COMMON_RECORD_HPP

#include <array>
#include <compare>
#include <concepts>
#include <cstdint>
#include <ostream>

namespace bonsai
{

/**
 * A 16-byte key/value record.  Ordering compares the key only; the value
 * is an opaque payload (e.g. the 6-byte hashed gensort payload).
 */
struct Record
{
    std::uint64_t key = 0;
    std::uint64_t value = 0;

    /** The reserved run-separator record (paper Section V-B). */
    static constexpr Record
    terminal()
    {
        return Record{0, 0};
    }

    /** True iff this is the reserved terminal record. */
    constexpr bool isTerminal() const { return key == 0 && value == 0; }

    friend constexpr bool
    operator==(const Record &a, const Record &b)
    {
        return a.key == b.key && a.value == b.value;
    }

    /** Key-only ordering, as in the hardware compare-and-exchange units. */
    friend constexpr bool
    operator<(const Record &a, const Record &b)
    {
        return a.key < b.key;
    }

    friend constexpr bool
    operator<=(const Record &a, const Record &b)
    {
        return a.key <= b.key;
    }
};

inline std::ostream &
operator<<(std::ostream &os, const Record &r)
{
    return os << "{" << r.key << "," << r.value << "}";
}

/**
 * A record with a 128-bit key (two 64-bit limbs), used for the gensort
 * 10-byte-key path and the wide-record scalability experiments.
 */
struct Record128
{
    std::uint64_t keyHi = 0;
    std::uint64_t keyLo = 0;
    std::uint64_t value = 0;

    static constexpr Record128
    terminal()
    {
        return Record128{0, 0, 0};
    }

    constexpr bool
    isTerminal() const
    {
        return keyHi == 0 && keyLo == 0 && value == 0;
    }

    friend constexpr bool
    operator==(const Record128 &a, const Record128 &b)
    {
        return a.keyHi == b.keyHi && a.keyLo == b.keyLo &&
            a.value == b.value;
    }

    friend constexpr bool
    operator<(const Record128 &a, const Record128 &b)
    {
        if (a.keyHi != b.keyHi)
            return a.keyHi < b.keyHi;
        return a.keyLo < b.keyLo;
    }

    friend constexpr bool
    operator<=(const Record128 &a, const Record128 &b)
    {
        return !(b < a);
    }
};

inline std::ostream &
operator<<(std::ostream &os, const Record128 &r)
{
    return os << "{" << r.keyHi << ":" << r.keyLo << "," << r.value << "}";
}

/**
 * A record with an arbitrary-width key (KeyWords x 64 bits), for the
 * paper's widest-record path: up to 512-bit records flow through the
 * parallel comparators unchanged, and "even wider records can be
 * implemented by using bit-serial comparators" (Section II) — the
 * performance model charges those a serialization factor
 * (model::serialFactor).
 */
template <unsigned KeyWords>
struct WideRecord
{
    static_assert(KeyWords >= 1);

    std::array<std::uint64_t, KeyWords> key{};
    std::uint64_t value = 0;

    static constexpr WideRecord
    terminal()
    {
        return WideRecord{};
    }

    constexpr bool
    isTerminal() const
    {
        for (std::uint64_t w : key) {
            if (w != 0)
                return false;
        }
        return value == 0;
    }

    friend constexpr bool
    operator==(const WideRecord &a, const WideRecord &b)
    {
        return a.key == b.key && a.value == b.value;
    }

    /** Lexicographic over the key words, most-significant first. */
    friend constexpr bool
    operator<(const WideRecord &a, const WideRecord &b)
    {
        for (unsigned w = 0; w < KeyWords; ++w) {
            if (a.key[w] != b.key[w])
                return a.key[w] < b.key[w];
        }
        return false;
    }

    friend constexpr bool
    operator<=(const WideRecord &a, const WideRecord &b)
    {
        return !(b < a);
    }
};

/**
 * The 16-byte item the in-memory sort moves in place of a record with
 * a 10-byte key (a gensort record): the paper's 10-byte key and 6-byte
 * index (Section VI-A).  Word 0 is key bytes 0-7 as a big-endian word;
 * word 1 holds key bytes 8-9 in its top 16 bits and the record's
 * 48-bit index below them.  Entries compare on the 80-bit key alone,
 * never on the index, so they order exactly as the records they name
 * do, ties included, and no comparison dereferences a record.
 */
struct KeyEntry
{
    static constexpr unsigned kIndexBits = 48;
    static constexpr std::uint64_t kMaxIndex =
        (std::uint64_t{1} << kIndexBits) - 1;

    std::uint64_t key = 0;  ///< key bytes 0-7, big-endian
    std::uint64_t tail = 0; ///< key bytes 8-9, then the index

    /** Key bytes 8-9, big-endian. */
    constexpr std::uint64_t keyTail() const { return tail >> kIndexBits; }

    /** The record's index. */
    constexpr std::uint64_t index() const { return tail & kMaxIndex; }

    /** One 128-bit compare of the 80-bit keys, with no branch. */
    friend constexpr bool
    operator<(const KeyEntry &a, const KeyEntry &b)
    {
        using Key80 = unsigned __int128;
        return (Key80{a.key} << 16 | a.keyTail()) <
               (Key80{b.key} << 16 | b.keyTail());
    }
};

/**
 * A record type the in-memory sort moves as KeyEntry items, found by
 * ADL: keyEntry(r, i) is r's key with index i, and entries order as
 * their records do.
 */
template <typename RecordT>
concept EntryKeyed = requires(const RecordT &r, std::uint64_t index) {
    { keyEntry(r, index) } -> std::same_as<KeyEntry>;
};

} // namespace bonsai

#endif // BONSAI_COMMON_RECORD_HPP
