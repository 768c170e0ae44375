/**
 * @file
 * Gensort key sets for differential and golden tests of the
 * wide-record sort path.  Every record carries its input index in
 * value bytes 10-17, so records with equal keys stay distinguishable
 * and the order the sort leaves ties in is part of the bytes.
 */

#ifndef BONSAI_TESTS_GENSORT_KEYS_HPP
#define BONSAI_TESTS_GENSORT_KEYS_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/gensort.hpp"
#include "common/random.hpp"

namespace bonsai
{

enum class GensortKeys
{
    Uniform,     ///< GensortGenerator's uniform random keys
    PrefixTie,   ///< bytes 0-7 equal; bytes 8-9 take 4096 values
    FewDistinct, ///< 16 keys, four to each 8-byte prefix
    AllEqual,    ///< one key
    TailOnly,    ///< bytes 0-7 equal; bytes 8-9 take all 65536 values
};

/** The name of key set @p keys, for test names and traces. */
inline const char *
keyName(GensortKeys keys)
{
    switch (keys) {
      case GensortKeys::Uniform:
        return "Uniform";
      case GensortKeys::PrefixTie:
        return "PrefixTie";
      case GensortKeys::FewDistinct:
        return "FewDistinct";
      case GensortKeys::AllEqual:
        return "AllEqual";
      case GensortKeys::TailOnly:
        return "TailOnly";
    }
    return "?";
}

/** @p n records of key set @p keys. */
inline std::vector<GensortRecord>
makeGensortKeys(std::size_t n, GensortKeys keys, std::uint64_t seed)
{
    if (keys == GensortKeys::Uniform)
        return GensortGenerator(seed).generate(0, n);
    SplitMix64 rng(seed);
    std::vector<GensortRecord> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint8_t *const b = out[i].bytes.data();
        switch (keys) {
          case GensortKeys::PrefixTie: {
            for (std::size_t j = 0; j < 8; ++j)
                b[j] = 0xA5;
            const std::uint64_t tail = rng.nextBounded(4096);
            b[8] = static_cast<std::uint8_t>(tail >> 8);
            b[9] = static_cast<std::uint8_t>(tail);
            break;
          }
          case GensortKeys::FewDistinct: {
            const std::uint64_t k = rng.nextBounded(16);
            b[0] = static_cast<std::uint8_t>(1 + k / 4);
            b[9] = static_cast<std::uint8_t>(k % 4);
            break;
          }
          case GensortKeys::TailOnly: {
            for (std::size_t j = 0; j < 8; ++j)
                b[j] = 0x5A;
            const std::uint64_t tail = rng.nextBounded(65536);
            b[8] = static_cast<std::uint8_t>(tail >> 8);
            b[9] = static_cast<std::uint8_t>(tail);
            break;
          }
          default:
            for (std::size_t j = 0; j < GensortRecord::kKeyBytes; ++j)
                b[j] = 7;
            break;
        }
        for (std::size_t j = 0; j < 8; ++j) {
            b[GensortRecord::kKeyBytes + j] =
                static_cast<std::uint8_t>(i >> (8 * j));
        }
    }
    return out;
}

/** Order-dependent FNV-1a digest over every byte of @p recs. */
inline std::uint64_t
gensortDigest(std::span<const GensortRecord> recs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const GensortRecord &r : recs) {
        for (const std::uint8_t byte : r.bytes) {
            h ^= byte;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

} // namespace bonsai

#endif // BONSAI_TESTS_GENSORT_KEYS_HPP
