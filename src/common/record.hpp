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
 * A record type with a monotone 64-bit key prefix, found by ADL:
 * keyPrefix(a) < keyPrefix(b) implies a < b, and a < b implies
 * keyPrefix(a) <= keyPrefix(b).  The in-memory sort kernels move a
 * KeyEntry per record of such a type instead of the record itself.
 */
template <typename RecordT>
concept KeyPrefixed = requires(const RecordT &r) {
    { keyPrefix(r) } -> std::same_as<std::uint64_t>;
};

/** A KeyPrefixed record's key prefix and address: 16 bytes that
 *  order exactly as the records they point to. */
template <typename RecordT>
struct KeyEntry
{
    std::uint64_t prefix;
    const RecordT *rec;

    static KeyEntry
    of(const RecordT &r)
    {
        return {keyPrefix(r), &r};
    }

    /** *a.rec < *b.rec: the prefixes decide unless they tie. */
    friend bool
    operator<(const KeyEntry &a, const KeyEntry &b)
    {
        if (a.prefix != b.prefix) [[likely]]
            return a.prefix < b.prefix;
        return *a.rec < *b.rec;
    }
};

} // namespace bonsai

#endif // BONSAI_COMMON_RECORD_HPP
