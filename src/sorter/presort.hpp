/**
 * @file
 * Phase 1's presorter: forms the initial sorted runs with the paper's
 * bitonic sorting network (Section VI-C1), block by block, as
 * ThreadPool tasks.
 *
 * hw::bitonicSortNetwork is the reference: it runs the network's
 * compare-exchange sequence one pair at a time, and it is the
 * presorter for every record type, run length and CPU but two.  For
 * 16-record runs of 16-byte Records on a CPU with AVX-512F, the same
 * sequence runs in registers instead: the 16 keys in two zmm, the 16
 * values in two zmm, and each of the network's ten stages is a
 * constant permute to the partner lane, an unsigned strict-less
 * compare and a blend.  A lane takes its partner only when the
 * network would swap the pair, which is only on strict less, so ties
 * never swap.  The network is not stable; running the same sequence
 * with the same swap rule is what reproduces the reference's order
 * of equal keys, byte for byte.  16-record runs of a KeyPrefixed
 * type (gensort records) run the same sequence and swap rule on
 * 16-byte KeyEntry tags instead of the records, then gather each
 * record once.
 *
 * The presorter reads from one buffer and may write into another, so
 * a sorter can place the presorted runs wherever its merge stages
 * must start for the last stage to end in the caller's buffer.
 */

#ifndef BONSAI_SORTER_PRESORT_HPP
#define BONSAI_SORTER_PRESORT_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>

#include "common/contract.hpp"
#include "common/record.hpp"
#include "common/thread_pool.hpp"
#include "hw/bitonic.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define BONSAI_PRESORT_AVX512 1
#else
#define BONSAI_PRESORT_AVX512 0
#endif

namespace bonsai::sorter
{

/** True iff the register presorter can run on this CPU (checked once). */
inline bool
haveAvx512Presort()
{
#if BONSAI_PRESORT_AVX512
    static const bool supported = __builtin_cpu_supports("avx512f") != 0;
    return supported;
#else
    return false;
#endif
}

#if BONSAI_PRESORT_AVX512
namespace presort_detail
{

static_assert(sizeof(Record) == 16 && offsetof(Record, key) == 0 &&
                  offsetof(Record, value) == 8,
              "a Record is one key word then one value word");

/**
 * Bit j is set when lane j of a 16-lane network stage takes its
 * partner only if the partner is strictly less: the low lane of an
 * ascending pair or the high lane of a descending one.  The other
 * lanes take their partner only if it is strictly greater.
 */
constexpr unsigned
takesLesserPartner(unsigned block, unsigned stride)
{
    unsigned lanes = 0;
    for (unsigned j = 0; j < 16; ++j) {
        const bool low = (j & stride) == 0;
        const bool ascending = (j & block) == 0;
        if (low == ascending)
            lanes |= 1u << j;
    }
    return lanes;
}

/** The @p kLesser lanes of one register through a stage whose pairs
 *  lie @p kStride lanes apart. */
template <unsigned kStride>
__attribute__((target("avx512f"))) inline void
laneStage(__m512i &keys, __m512i &values, __mmask8 lesser)
{
    constexpr long long s = kStride;
    const __m512i partner =
        _mm512_setr_epi64(s, 1 ^ s, 2 ^ s, 3 ^ s, 4 ^ s, 5 ^ s, 6 ^ s, 7 ^ s);
    // The two-source permute with both sources the same register:
    // GCC 12's one-source _mm512_permutexvar_epi64 trips
    // -Wuninitialized inside its own header.
    const __m512i pk = _mm512_permutex2var_epi64(keys, partner, keys);
    const __m512i pv = _mm512_permutex2var_epi64(values, partner, values);
    const __mmask8 take =
        _mm512_mask_cmplt_epu64_mask(lesser, pk, keys) |
        _mm512_mask_cmplt_epu64_mask(static_cast<__mmask8>(~lesser), keys,
                                     pk);
    keys = _mm512_mask_blend_epi64(take, keys, pk);
    values = _mm512_mask_blend_epi64(take, values, pv);
}

/** One stage of the 16-record network, @p kBlock and @p kStride as in
 *  hw::bitonicSortNetwork, on keys k and values v (lanes 0-7 in
 *  register 0, lanes 8-15 in register 1). */
template <unsigned kBlock, unsigned kStride>
__attribute__((target("avx512f"))) inline void
stage(__m512i (&k)[2], __m512i (&v)[2])
{
    if constexpr (kStride == 8) {
        // Partners sit in the same lane of the other register, and the
        // 16-block is ascending: the high lane swaps down when less.
        const __mmask8 swap = _mm512_cmplt_epu64_mask(k[1], k[0]);
        const __m512i k0 = _mm512_mask_blend_epi64(swap, k[0], k[1]);
        const __m512i v0 = _mm512_mask_blend_epi64(swap, v[0], v[1]);
        k[1] = _mm512_mask_blend_epi64(swap, k[1], k[0]);
        v[1] = _mm512_mask_blend_epi64(swap, v[1], v[0]);
        k[0] = k0;
        v[0] = v0;
    } else {
        constexpr unsigned lesser = takesLesserPartner(kBlock, kStride);
        laneStage<kStride>(k[0], v[0], static_cast<__mmask8>(lesser));
        laneStage<kStride>(k[1], v[1], static_cast<__mmask8>(lesser >> 8));
    }
}

} // namespace presort_detail

/**
 * hw::bitonicSortNetwork over the 16 records at @p in, written to
 * @p out (which may be @p in), in AVX-512F registers.  Call only when
 * haveAvx512Presort().
 */
__attribute__((target("avx512f"))) inline void
bitonicSort16Avx512(const Record *in, Record *out)
{
    using presort_detail::stage;
    // Records 0-3, 4-7, 8-11 and 12-15, as key, value, key, ... words.
    const __m512i r0 = _mm512_loadu_si512(in);
    const __m512i r1 = _mm512_loadu_si512(in + 4);
    const __m512i r2 = _mm512_loadu_si512(in + 8);
    const __m512i r3 = _mm512_loadu_si512(in + 12);
    const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    __m512i k[2] = {_mm512_permutex2var_epi64(r0, even, r1),
                    _mm512_permutex2var_epi64(r2, even, r3)};
    __m512i v[2] = {_mm512_permutex2var_epi64(r0, odd, r1),
                    _mm512_permutex2var_epi64(r2, odd, r3)};

    stage<2, 1>(k, v);
    stage<4, 2>(k, v);
    stage<4, 1>(k, v);
    stage<8, 4>(k, v);
    stage<8, 2>(k, v);
    stage<8, 1>(k, v);
    stage<16, 8>(k, v);
    stage<16, 4>(k, v);
    stage<16, 2>(k, v);
    stage<16, 1>(k, v);

    const __m512i low = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i high = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    _mm512_storeu_si512(out, _mm512_permutex2var_epi64(k[0], low, v[0]));
    _mm512_storeu_si512(out + 4, _mm512_permutex2var_epi64(k[0], high, v[0]));
    _mm512_storeu_si512(out + 8, _mm512_permutex2var_epi64(k[1], low, v[1]));
    _mm512_storeu_si512(out + 12,
                        _mm512_permutex2var_epi64(k[1], high, v[1]));
}
#endif // BONSAI_PRESORT_AVX512

/** The presorter's run length: the paper's 16-record network. */
inline constexpr std::size_t kEntryRun = 16;

/**
 * hw::bitonicSortNetwork over kEntryRun records at @p in, written to
 * @p out (which may be @p in), on the records' KeyEntry tags: the same
 * compare-exchange sequence with the same strict-less swap rule, on
 * tags that order as the records do, so it swaps exactly the pairs
 * the record network swaps.  A swap is a masked exchange of the two
 * tags' words, not a branch; then each record moves once, by gather.
 */
template <KeyPrefixed RecordT>
void
presortByEntries(const RecordT *in, RecordT *out)
{
    // An in-place gather would overwrite records that tags still
    // point to, so it gathers from a copy.
    alignas(RecordT) std::byte copy[kEntryRun * sizeof(RecordT)];
    if (in == out) {
        std::memcpy(copy, in, sizeof copy);
        in = std::launder(reinterpret_cast<const RecordT *>(copy));
    }
    std::uint64_t prefix[kEntryRun];
    std::uintptr_t rec[kEntryRun];
    for (std::size_t i = 0; i < kEntryRun; ++i) {
        prefix[i] = keyPrefix(in[i]);
        rec[i] = reinterpret_cast<std::uintptr_t>(in + i);
    }
    const auto entry = [&](std::size_t i) {
        return KeyEntry<RecordT>{prefix[i],
                                 reinterpret_cast<const RecordT *>(rec[i])};
    };
    for (std::size_t block = 2; block <= kEntryRun; block *= 2) {
        for (std::size_t stride = block / 2; stride >= 1; stride /= 2) {
            for (std::size_t i = 0; i < kEntryRun; ++i) {
                if ((i & stride) != 0)
                    continue;
                const std::size_t j = i + stride;
                // Ascending pairs swap when the high tag is strictly
                // less, descending ones when the low tag is.
                const bool swap = (i & block) == 0 ? entry(j) < entry(i)
                                                   : entry(i) < entry(j);
                const std::uint64_t mask =
                    std::uint64_t{0} - std::uint64_t{swap};
                const std::uint64_t dp = (prefix[i] ^ prefix[j]) & mask;
                const std::uintptr_t dr = (rec[i] ^ rec[j]) & mask;
                prefix[i] ^= dp;
                prefix[j] ^= dp;
                rec[i] ^= dr;
                rec[j] ^= dr;
            }
        }
    }
    for (std::size_t i = 0; i < kEntryRun; ++i)
        out[i] = *reinterpret_cast<const RecordT *>(rec[i]);
}

/**
 * Presort the @p n records at @p in into @p out (which may be @p in):
 * the bitonic network on a power-of-two run, std::sort on a shorter
 * tail.  A 16-record run takes the register network when it is of
 * Records and the CPU has it, and the tag network when its type is
 * KeyPrefixed; every other run copies and calls hw::bitonicSortNetwork.
 */
template <typename RecordT>
void
presortBlock(const RecordT *in, RecordT *out, std::size_t n)
{
#if BONSAI_PRESORT_AVX512
    if constexpr (std::is_same_v<RecordT, Record>) {
        if (n == 16 && haveAvx512Presort()) {
            bitonicSort16Avx512(in, out);
            return;
        }
    }
#endif
    if constexpr (KeyPrefixed<RecordT>) {
        if (n == kEntryRun) {
            presortByEntries(in, out);
            return;
        }
    }
    if (in != out)
        std::copy(in, in + n, out);
    const std::span<RecordT> run(out, n);
    if (hw::isPow2(n))
        hw::bitonicSortNetwork(run);
    else
        std::sort(run.begin(), run.end());
}

/**
 * Presort @p in into @p out, which is the same range or a disjoint
 * one of the same size, in runs of @p run records (the last may be
 * shorter); the runs are ThreadPool tasks on @p pool.  A run of one
 * record is already sorted, so it is only copied.
 */
template <typename RecordT>
void
presortRuns(std::span<const RecordT> in, std::span<RecordT> out,
            std::uint64_t run, ThreadPool &pool)
{
    BONSAI_REQUIRE(in.size() == out.size(),
                   "the presort writes every record it reads");
    const std::uint64_t n = in.size();
    if (run <= 1) {
        if (in.data() != out.data())
            std::copy(in.begin(), in.end(), out.begin());
        return;
    }
    // A few thousand runs per task keeps the task count small next to
    // the run count.
    constexpr std::uint64_t kRunsPerTask = 2048;
    const std::uint64_t task_records = run * kRunsPerTask;
    const std::uint64_t tasks = (n + task_records - 1) / task_records;
    pool.parallelFor(tasks, [&](std::uint64_t t) {
        const std::uint64_t stop = std::min(n, (t + 1) * task_records);
        for (std::uint64_t lo = t * task_records; lo < stop; lo += run) {
            presortBlock(in.data() + lo, out.data() + lo,
                         std::min(run, stop - lo));
        }
    });
}

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_PRESORT_HPP
