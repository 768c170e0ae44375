/**
 * @file
 * Phase 1's presorter: forms the initial sorted runs, block by block,
 * as ThreadPool tasks.  Every run is stable: equal items keep their
 * input order, so with the stable merges after it every host sort
 * emits std::stable_sort of its input.
 *
 * A 16-item run of Records or KeyEntry items on a CPU with AVX-512F
 * goes through the paper's bitonic sorting network (Section VI-C1) in
 * registers: the 16 first words in two zmm, the 16 second words in two
 * zmm, and each of the network's ten stages a constant permute to the
 * partner lane, an unsigned strict-less compare and a blend.  The
 * network orders on the first word alone (a Record's key, a KeyEntry's
 * key bytes 0-7) and is not stable, so before it stores anything it
 * checks the sorted first words for two equal neighbours.  With none,
 * the run has one order, the network's, and it is stored; with one,
 * nothing is stored and the run takes std::stable_sort, which orders
 * on the whole key.  Every other run (other item types, other lengths,
 * CPUs without AVX-512F) takes std::stable_sort.
 *
 * A range of EntryKeyed records (gensort records) presorts as
 * KeyEntry items: each run of entries is built from its records, in
 * input order, and sorted; the records are not touched.
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
#include <span>
#include <type_traits>

#include "common/contract.hpp"
#include "common/cpu.hpp"
#include "common/record.hpp"
#include "common/thread_pool.hpp"

namespace bonsai::sorter
{

#if BONSAI_AVX512
namespace presort_detail
{

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
 * The bitonic network over the 16 items at @p in, ordered on their
 * first word, in AVX-512F registers.  When no two of the 16 tie on that
 * word, the sorted run is written to @p out (which may be @p in) and
 * the result is true; otherwise nothing is written and the result is
 * false.  Call only when haveAvx512f().
 */
template <typename T>
    requires std::is_same_v<T, Record> || std::is_same_v<T, KeyEntry>
__attribute__((target("avx512f"))) inline bool
bitonicSort16Avx512(const T *in, T *out)
{
    static_assert(sizeof(T) == 16 && std::is_standard_layout_v<T>,
                  "an item is an order word then a second word");
    using presort_detail::stage;
    // Items 0-3, 4-7, 8-11 and 12-15, as key, value, key, ... words.
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

    // Sorted, equal words sit side by side: lane j against lane j + 1
    // (valignq by one lane), lane 15 against nothing.  The zero-masked
    // valignq: GCC 12's unmasked one trips -Wuninitialized inside its
    // own header.
    const __m512i next0 = _mm512_maskz_alignr_epi64(0xFF, k[1], k[0], 1);
    const __m512i next1 = _mm512_maskz_alignr_epi64(0xFF, k[1], k[1], 1);
    const __mmask8 ties = _mm512_cmpeq_epu64_mask(k[0], next0) |
        _mm512_mask_cmpeq_epu64_mask(0x7F, k[1], next1);
    if (ties != 0)
        return false;

    const __m512i low = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i high = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    _mm512_storeu_si512(out, _mm512_permutex2var_epi64(k[0], low, v[0]));
    _mm512_storeu_si512(out + 4, _mm512_permutex2var_epi64(k[0], high, v[0]));
    _mm512_storeu_si512(out + 8, _mm512_permutex2var_epi64(k[1], low, v[1]));
    _mm512_storeu_si512(out + 12,
                        _mm512_permutex2var_epi64(k[1], high, v[1]));
    return true;
}
#endif // BONSAI_AVX512

/**
 * Sort the @p n items at @p in stably into @p out (which may be
 * @p in).  A 16-item run of Records or KeyEntry items whose first
 * words all differ takes the register network when the CPU has it.
 * Every other run, and a run with a tie there, is copied from @p in,
 * which the network left untouched, and std::stable_sort sorts the
 * copy.
 */
template <typename T>
void
presortBlock(const T *in, T *out, std::size_t n)
{
#if BONSAI_AVX512
    if constexpr (std::is_same_v<T, Record> || std::is_same_v<T, KeyEntry>) {
        if (n == 16 && haveAvx512f() && bitonicSort16Avx512(in, out))
            return;
    }
#endif
    if (in != out)
        std::copy(in, in + n, out);
    std::stable_sort(out, out + n);
}

/**
 * The entries of the @p n records at @p in, the first named by index
 * @p first, written to @p out and sorted by presortBlock.
 */
template <EntryKeyed RecordT>
void
presortEntryBlock(const RecordT *in, std::uint64_t first, KeyEntry *out,
                  std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = keyEntry(in[i], first + i);
    presortBlock(out, out, n);
}

/**
 * Call @p block(lo, len) for each run [lo, lo + len) of @p run items
 * of [0, @p n) (the last may be shorter), a few thousand runs to a
 * ThreadPool task on @p pool, which keeps the task count small next
 * to the run count.
 */
template <typename Block>
void
forEachRun(std::uint64_t n, std::uint64_t run, ThreadPool &pool,
           Block &&block)
{
    const std::uint64_t task_items = run * 2048;
    const std::uint64_t tasks = (n + task_items - 1) / task_items;
    pool.parallelFor(tasks, [&](std::uint64_t t) {
        const std::uint64_t stop = std::min(n, (t + 1) * task_items);
        for (std::uint64_t lo = t * task_items; lo < stop; lo += run)
            block(lo, std::min(run, stop - lo));
    });
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
    if (run <= 1) {
        if (in.data() != out.data())
            std::copy(in.begin(), in.end(), out.begin());
        return;
    }
    forEachRun(in.size(), run, pool, [&](std::uint64_t lo, std::uint64_t len) {
        presortBlock(in.data() + lo, out.data() + lo, len);
    });
}

/**
 * The KeyEntry items of @p in, record i named by index i, written to
 * @p out (one per record) in sorted runs of @p run entries (the last
 * may be shorter), as presortRuns sorts records; the runs are
 * ThreadPool tasks on @p pool.  A run of one entry is only built.
 */
template <EntryKeyed RecordT>
void
presortEntries(std::span<const RecordT> in, std::span<KeyEntry> out,
               std::uint64_t run, ThreadPool &pool)
{
    BONSAI_REQUIRE(in.size() == out.size(), "one entry per record");
    BONSAI_REQUIRE(in.size() <= KeyEntry::kMaxIndex + 1,
                   "every record index fits an entry");
    forEachRun(in.size(), std::max<std::uint64_t>(run, 1), pool,
               [&](std::uint64_t lo, std::uint64_t len) {
                   presortEntryBlock(in.data() + lo, lo, out.data() + lo,
                                     len);
               });
}

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_PRESORT_HPP
