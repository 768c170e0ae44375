/**
 * @file
 * The ell-way merge kernel of both phases: a binary tree of stable,
 * branch-free 2-way mergers joined by small blocks — the software
 * shape of the paper's AMT, where 2-way mergers are joined by FIFOs
 * (Section III), with the branch-free merge step of FLiMS.
 *
 * Shape: the leaves are the inputs in input order, padded to a power
 * of two (at least 2) with empty leaves.  Every internal node merges
 * its two children into a block of kBlockRecords records, which its
 * parent drains and asks it to refill; the root writes straight into
 * the output.  An in-memory leaf is its input range itself, so nothing
 * is copied into the tree.  A streamed leaf is a batch its refill
 * callable hands out — in phase 2, a RunCursor's leased buffer — and
 * is asked for the next batch when it runs dry, as the paper's data
 * loader refills the leaves b records at a time (Equation 10).
 *
 * Order: a node takes its right head only when it is strictly smaller
 * than its left head, so ties go left.  With the leaves in input
 * order, the tree emits exactly the augmented (key, input index,
 * position) order — the order the Merge Path partitioner and the
 * final-pass splitter cut on.  A tree over a Merge Path slice
 * (per-input [begin, end) ranges) therefore writes exactly the
 * records the whole merge writes at that slice's output ranks, and a
 * streamed tree writes what the in-memory tree writes over the same
 * runs, whatever the batch size.
 *
 * Items: a tree merges one item type, in its leaves, its node blocks
 * and its output alike.  A node of 16-byte items whose order a
 * register holds (Records, on the key word; KeyEntry items, on the
 * key word and the key tail) emits 8 items per step on a CPU with
 * AVX-512F, as the paper's k-merger emits k per cycle (Section II),
 * and in the same order: a Merge Path co-rank over the next 8 items
 * of each child counts the outputs the left gives, where a left item
 * counts unless the right item it is paired with is strictly smaller,
 * so ties go left; a 3-level bitonic merge then orders the 8 on
 * (word 0, secondary), the secondary being the 4-bit rank (the item's
 * side and position: left 0-7, right 8-15) with an entry's 16-bit
 * key tail packed above it.  Ranks are unique, so every tie resolves
 * by side, then position, as the one-item step resolves it.
 *
 * Feeding: a node tops up a child that holds fewer items than a step
 * takes (8, or 1 for the one-item step): an internal child moves its
 * tail to the front of its block and refills the rest, and a streamed
 * leaf takes its next batch once it is empty, since the batch
 * overwrites the last.  So the 8-item step runs while both children
 * hold 8 and the output has room for 8, to the end of every block.
 * A block may stop with up to 7 slots free, and counts as drained
 * only once both its children are.  A drained child short of 8 items
 * takes the padded 8-item step (its missing items read as pads of the
 * largest key) while the two children hold 8 between them.  The
 * one-item step runs where a streamed leaf is short of 8 between
 * batches, where two drained children hold fewer than 8, before a
 * padded step would take a pad, at the root's last 0-7 items of a
 * fill, for other item types and on other CPUs.
 *
 * Entries: BehavioralSorter sorts a gensort range as KeyEntry items
 * (common/record.hpp) — the paper's 10-byte key and 6-byte index, not
 * the 100-byte record — and moves each record once, by index, after
 * its last stage.  An entry carries its whole key, so the register
 * step decides every comparison, ties in bytes 0-7 included.  Phase
 * 2 streams gensort runs the same way: each leaf turns the records of
 * its run's reads into entries (sorter/run_cursor.hpp EntryCursor),
 * whose index names the member and the record's position in its run,
 * and the root's entries are gathered into the output transfer
 * (sorter/phase2_merge.hpp); every record whose entry waits in a
 * node block pins its leaf's read.
 *
 * Cost: each item is compared and copied once per tree level, with no
 * data-dependent branch; a loser tree instead replays log2(ell)
 * unpredictable branches per record.  The one-item step is bound by
 * its latency (load the heads, compare, move a pointer); the 8-item
 * step pays that chain (load, co-rank, popcount) once per 8 items and
 * keeps its merge network off it.  Fed to the end of every block, a
 * tree level of 16-byte items costs about what a bare 2-way merge of
 * long runs does, 1.5-2 ns per item on a 4-core AVX-512F VM, and a
 * top-up moves at most 7 items.  A node block is 2 KiB, but never
 * fewer than 32 items (128 16-byte Records or entries, 85 Record128,
 * 32 gensort records), and the blocks take (ways - 2) of them, ways
 * being the fan-in rounded up to a power of two: 252 KiB at ell = 128.
 * They live in an arena the caller lends, so a lane that merges many
 * trees in turn allocates them once (BehavioralSorter::runStage,
 * Phase2Merger), or in one the tree owns.  Block size, placement and
 * content do not change the merge order.
 */

#ifndef BONSAI_SORTER_MERGE_TREE_HPP
#define BONSAI_SORTER_MERGE_TREE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/cpu.hpp"
#include "common/record.hpp"
#include "common/record_buffer.hpp"
#include "sorter/merge_plan.hpp"

namespace bonsai::sorter
{

/**
 * The branch-free 2-way merge step, @p n times, from the heads at
 * @p lp and @p rp to @p out: take the right head only when it is
 * strictly smaller (ties go left).  Each step consumes one item, so
 * with n <= min(left, right) no bound check is needed inside the
 * loop.  Advances @p lp and @p rp past what they gave; returns the end
 * of the output.
 */
template <typename T>
T *
mergeSteps(const T *&lp, const T *&rp, T *out, std::size_t n)
{
    const T *l = lp;
    const T *r = rp;
    for (T *const stop = out + n; out != stop; ++out) {
        const bool take_right = *r < *l;
        // Select the source by masking, not by a conditional the
        // compiler could turn back into a branch.
        const std::uintptr_t mask =
            std::uintptr_t{0} - std::uintptr_t{take_right};
        const auto li = reinterpret_cast<std::uintptr_t>(l);
        const auto ri = reinterpret_cast<std::uintptr_t>(r);
        *out = *reinterpret_cast<const T *>(li ^ ((li ^ ri) & mask));
        r += take_right;
        l += !take_right;
    }
    lp = l;
    rp = r;
    return out;
}

#if BONSAI_AVX512
namespace merge_detail
{

/** One level of an 8-lane ascending bitonic merge on (key,
 *  secondary): lane j and lane j ^ kStride exchange when out of
 *  order. */
template <unsigned kStride>
__attribute__((target("avx512f"))) inline void
bitonicLevel(__m512i &keys, __m512i &secondary)
{
    constexpr long long s = kStride;
    const __m512i partner =
        _mm512_setr_epi64(s, 1 ^ s, 2 ^ s, 3 ^ s, 4 ^ s, 5 ^ s, 6 ^ s, 7 ^ s);
    // Two-source permutes with both sources the same register, as in
    // the presorter: GCC 12's one-source form trips -Wuninitialized.
    const __m512i pk = _mm512_permutex2var_epi64(keys, partner, keys);
    const __m512i ps =
        _mm512_permutex2var_epi64(secondary, partner, secondary);
    // The partner comes first: a smaller key, or the same key and a
    // smaller secondary.  Ranks are unique, so no two lanes tie.
    const __mmask8 partner_first =
        _mm512_cmplt_epu64_mask(pk, keys) |
        _mm512_mask_cmplt_epu64_mask(_mm512_cmpeq_epu64_mask(pk, keys), ps,
                                     secondary);
    // The low lane of a pair keeps the first item, the high lane the
    // second.
    constexpr __mmask8 high_lanes =
        kStride == 4 ? 0xF0 : kStride == 2 ? 0xCC : 0xAA;
    const __mmask8 take = partner_first ^ high_lanes;
    keys = _mm512_mask_blend_epi64(take, keys, pk);
    secondary = _mm512_mask_blend_epi64(take, secondary, ps);
}

/** The secondary sort words of 8 items whose second words are @p words
 *  and whose ranks are @p ranks: a KeyEntry's 16-bit key tail above the
 *  4-bit rank, a Record's rank alone (its value is payload). */
template <typename T>
__attribute__((target("avx512f"))) inline __m512i
secondaryWords(__m512i words, __m512i ranks)
{
    if constexpr (std::is_same_v<T, KeyEntry>) {
        // Bits 44-47 of the shift are index bits: clear them for the
        // rank.  (The zero-masked shift: GCC 12's unmasked form trips
        // -Wmaybe-uninitialized inside its own header.)
        const __m512i shifted =
            _mm512_maskz_srli_epi64(0xFF, words, KeyEntry::kIndexBits - 4);
        return _mm512_or_si512(
            _mm512_and_si512(shifted, _mm512_set1_epi64(~0xFLL)), ranks);
    } else {
        return ranks;
    }
}

} // namespace merge_detail

/** Items the 8-item step merges: one order word, then one word that
 *  is payload (a Record's value) or holds the rest of the key above
 *  payload (a KeyEntry's tail above its index). */
template <typename T>
concept RegisterMerged =
    std::is_same_v<T, Record> || std::is_same_v<T, KeyEntry>;

/**
 * The 8-item merge step from the heads at @p lp and @p rp (ending at
 * @p lend and @p rend) to @p out, for as long as both sides hold 8
 * items and [out, last) has room for 8; each step writes the next 8
 * items the one-item step would, byte for byte.  Advances @p lp and
 * @p rp past what they gave; returns the end of the output.  Call
 * only when haveAvx512f().
 *
 * With @p kPadded, a side that nothing follows may hold fewer than 8
 * items: its minimum (@p lmin or @p rmin) is then 1, and the run goes
 * on while each side holds its minimum and the two hold 8 between
 * them.  Masked loads read a short side's missing items as pads of
 * the largest key.  A right pad loses every tie, so it is never
 * taken; a left pad would be taken only before a right item of the
 * largest key, and the run stops there instead.  The masks sit on the
 * step's latency chain (a side's count sets its mask, the mask gates
 * its loads), so sides that hold 8 take the unpadded step: a
 * padded-only kernel ran inmem-16b at 1.68x std::sort, as fast as no
 * padded form at all, against 1.81x for the two (4-core AVX-512F VM).
 */
template <RegisterMerged T, bool kPadded = false>
__attribute__((target("avx512f"))) inline T *
mergeSteps8Avx512(const T *&lp, const T *lend, const T *&rp,
                  const T *rend, T *out, T *last, std::ptrdiff_t lmin = 8,
                  std::ptrdiff_t rmin = 8)
{
    static_assert(sizeof(T) == 16 && std::is_standard_layout_v<T>,
                  "an item is an order word then a second word");
    BONSAI_REQUIRE(kPadded || (lmin >= 8 && rmin >= 8),
                   "only the padded step reads a side short of 8 items");
    // Word indices into two registers of 4 items each.
    const __m512i firsts = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i firsts_reversed =
        _mm512_setr_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i seconds = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i seconds_reversed =
        _mm512_setr_epi64(15, 13, 11, 9, 7, 5, 3, 1);
    // Left item j has rank j and right item j rank 8 + j, so the
    // (key, rank) order is the (key, side, position) order.
    const __m512i left_ranks = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    const __m512i right_ranks_reversed =
        _mm512_setr_epi64(15, 14, 13, 12, 11, 10, 9, 8);
    const __m512i low = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i high = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);

    const T *l = lp;
    const T *r = rp;
    for (;;) {
        const std::ptrdiff_t lc = lend - l;
        const std::ptrdiff_t rc = rend - r;
        if (lc < lmin || rc < rmin || last - out < 8)
            break;
        __m512i l0, l1, r0, r1;
        if constexpr (kPadded) {
            if (lc + rc < 8)
                break;
            // One mask bit per word, two words an item; the masked-off
            // words read as the pad and are never loaded.  The second
            // half's address may lie past the side's end, so it is
            // formed as an integer.
            const __m512i pad = _mm512_set1_epi64(-1);
            const unsigned lm = lc >= 8 ? 0xFFFF : (1u << (2 * lc)) - 1;
            const unsigned rm = rc >= 8 ? 0xFFFF : (1u << (2 * rc)) - 1;
            const auto fifth = [](const T *p) {
                return reinterpret_cast<const void *>(
                    reinterpret_cast<std::uintptr_t>(p) + 4 * sizeof(T));
            };
            l0 = _mm512_mask_loadu_epi64(pad, static_cast<__mmask8>(lm), l);
            l1 = _mm512_mask_loadu_epi64(pad, static_cast<__mmask8>(lm >> 8),
                                         fifth(l));
            r0 = _mm512_mask_loadu_epi64(pad, static_cast<__mmask8>(rm), r);
            r1 = _mm512_mask_loadu_epi64(pad, static_cast<__mmask8>(rm >> 8),
                                         fifth(r));
        } else {
            l0 = _mm512_loadu_si512(l);
            l1 = _mm512_loadu_si512(l + 4);
            r0 = _mm512_loadu_si512(r);
            r1 = _mm512_loadu_si512(r + 4);
        }
        const __m512i lk = _mm512_permutex2var_epi64(l0, firsts, l1);
        const __m512i lw = _mm512_permutex2var_epi64(l0, seconds, l1);
        const __m512i rw = _mm512_permutex2var_epi64(r0, seconds, r1);
        // Lane j: right item 7 - j.
        const __m512i rk = _mm512_permutex2var_epi64(r0, firsts_reversed, r1);
        const __m512i ls = merge_detail::secondaryWords<T>(lw, left_ranks);
        // The co-rank: lane j is set iff left item j comes before
        // right item 7 - j.  The set lanes are a prefix, and their
        // count a is how many of the 8 outputs the left gives.
        __mmask8 from_left;
        __m512i rs;
        if constexpr (std::is_same_v<T, Record>) {
            from_left = _mm512_cmple_epu64_mask(lk, rk);
            rs = right_ranks_reversed;
        } else {
            rs = merge_detail::secondaryWords<T>(
                _mm512_permutex2var_epi64(r0, seconds_reversed, r1),
                right_ranks_reversed);
            from_left = _mm512_cmplt_epu64_mask(lk, rk) |
                _mm512_mask_cmplt_epu64_mask(_mm512_cmpeq_epu64_mask(lk, rk),
                                             ls, rs);
        }
        const auto a = static_cast<unsigned>(__builtin_popcount(from_left));
        if constexpr (kPadded) {
            const auto taken = static_cast<std::ptrdiff_t>(a);
            if (taken > lc || 8 - taken > rc)
                break; // a pad would be taken
        }
        // Left items 0 .. a-1 ascending, then right items 7-a .. 0
        // descending: a bitonic sequence.
        __m512i k = _mm512_mask_blend_epi64(from_left, rk, lk);
        __m512i sec = _mm512_mask_blend_epi64(from_left, rs, ls);
        merge_detail::bitonicLevel<4>(k, sec);
        merge_detail::bitonicLevel<2>(k, sec);
        merge_detail::bitonicLevel<1>(k, sec);
        // Gather each output's second word by its rank — the low 4
        // bits of its secondary, all a permute reads — then
        // interleave.
        const __m512i w = _mm512_permutex2var_epi64(lw, sec, rw);
        _mm512_storeu_si512(out, _mm512_permutex2var_epi64(k, low, w));
        _mm512_storeu_si512(out + 4, _mm512_permutex2var_epi64(k, high, w));
        l += a;
        r += 8 - a;
        out += 8;
    }
    lp = l;
    rp = r;
    return out;
}
#endif // BONSAI_AVX512

/** The merge tree over inputs of T, whose node blocks and output
 *  hold T too. */
template <typename T>
class MergeTree
{
  public:
    /** Items per internal-node block: 2 KiB, at least 32. */
    static constexpr std::size_t kBlockRecords = nodeBlockItems(sizeof(T));

    /** Hands out member i's next batch, empty once it is drained;
     *  a batch stays valid until the member's next refill. */
    using Refill = std::function<std::span<const T>(std::size_t)>;

    /**
     * Merge input i over positions [begin[i], end[i]) — a Merge Path
     * slice — or over its full extent when @p begin and @p end are
     * empty.  Node blocks live in @p arena, which grows as needed and
     * is lent to one live tree at a time, or in the tree's own buffer
     * when it is null.  The inputs must outlive the tree.
     */
    explicit MergeTree(std::span<const std::span<const T>> inputs,
                       std::span<const std::uint64_t> begin = {},
                       std::span<const std::uint64_t> end = {},
                       RecordBuffer<T> *arena = nullptr)
    {
        BONSAI_REQUIRE(begin.size() == end.size(),
                       "cursor bound vectors must pair up");
        BONSAI_REQUIRE(begin.empty() || begin.size() == inputs.size(),
                       "one cursor range per input");
        shape(inputs.size(), arena);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const std::uint64_t lo = begin.empty() ? 0 : begin[i];
            const std::uint64_t hi =
                end.empty() ? inputs[i].size() : end[i];
            BONSAI_REQUIRE(lo <= hi, "cursor range must not be inverted");
            BONSAI_REQUIRE(hi <= inputs[i].size(),
                           "cursor range exceeds its input");
            leaves_[i] = {inputs[i].data() + lo, inputs[i].data() + hi,
                          true};
            total_ += hi - lo;
        }
    }

    /** Merge @p members streamed inputs, each refilled by @p refill
     *  whenever its batch runs dry; blocks as above. */
    MergeTree(std::size_t members, Refill refill,
              RecordBuffer<T> *arena = nullptr)
        : refill_(std::move(refill))
    {
        shape(members, arena);
        for (std::size_t i = 0; i < members; ++i)
            leaves_[i].drained = false;
    }

    /** Items an in-memory merge writes. */
    std::uint64_t size() const { return total_; }

    /** Write an in-memory merge to [out, out + size()); returns the
     *  end of the output.  A tree merges once. */
    T *
    merge(T *out)
    {
        T *const last = fill(out, out + total_);
        BONSAI_ENSURE(last == out + total_,
                      "the merge writes every input item");
        return last;
    }

    /** Write the next merged items to [out, last), stopping early
     *  only when every input is drained; returns the end of what was
     *  written. */
    T *
    fill(T *out, T *last)
    {
        return fill(1, out, last);
    }

  private:
    /** A node's unread output: a leaf's input range or an internal
     *  node's block.  Drained: nothing follows [pos, end). */
    struct Stream
    {
        const T *pos = nullptr;
        const T *end = nullptr;
        bool drained = true;

        std::size_t size() const
        {
            return static_cast<std::size_t>(end - pos);
        }
    };

    /**
     * Merge node @p k's children into [out, last) until it is full or
     * both children are drained; returns the end of what was written.
     */
    T *
    fill(std::size_t k, T *out, T *const last)
    {
        if (2 * k >= ways_)
            return fill(k, leaves_[2 * k - ways_],
                        leaves_[2 * k + 1 - ways_], out, last);
        return fill(k, inner_[2 * k], inner_[2 * k + 1], out, last);
    }

    /** As above, from node @p k's children @p left and @p right.  A
     *  child is topped up whenever it holds fewer than step_ items,
     *  so the 8-item step runs to the end of every block.  An
     *  internal node's block may stop with fewer than step_ slots
     *  free; the root fills to @p last. */
    T *
    fill(std::size_t k, Stream &left, Stream &right, T *out, T *const last)
    {
        const std::size_t least = k == 1 ? 1 : step_;
        while (static_cast<std::size_t>(last - out) >= least) {
            topUp(2 * k, left);
            topUp(2 * k + 1, right);
            const auto room = static_cast<std::size_t>(last - out);
            if (left.pos == left.end || right.pos == right.end) {
                Stream &rest = left.pos == left.end ? right : left;
                const std::size_t n = std::min(room, rest.size());
                if (n == 0)
                    break; // both children drained
                out = std::copy(rest.pos, rest.pos + n, out);
                rest.pos += n;
                continue;
            }
            out = mergeRun(left, right, out, last);
        }
        return out;
    }

    /** Size the tree for @p inputs leaves: at least 2, padded to a
     *  power of two with leaves that start drained.  Nodes 2 .. ways-1
     *  merge into blocks in @p arena (or the tree's own buffer), the
     *  root (node 1) into the output. */
    void
    shape(std::size_t inputs, RecordBuffer<T> *arena)
    {
#if BONSAI_AVX512
        if constexpr (RegisterMerged<T>)
            step_ = haveAvx512f() ? 8 : 1;
#endif
        while (ways_ < inputs)
            ways_ *= 2;
        leaves_.resize(ways_);
        inner_.resize(ways_);
        if (ways_ > 2) {
            RecordBuffer<T> &store = arena ? *arena : owned_;
            blocks_ = store.first((ways_ - 2) * kBlockRecords).data();
            for (std::size_t k = 2; k < ways_; ++k)
                inner_[k].drained = false;
        }
    }

    /**
     * Top up node @p k's stream @p s when it holds fewer than step_
     * items and more may follow.  A streamed leaf takes its member's
     * next batch only once it is empty, since the batch overwrites
     * the last.  An internal node moves its tail to the front of its
     * block and fills the rest from its children; it is drained once
     * both children are.
     */
    void
    topUp(std::size_t k, Stream &s)
    {
        if (s.drained || s.size() >= step_)
            return;
        if (k >= ways_) {
            if (s.pos != s.end)
                return;
            const std::span<const T> batch = refill_(k - ways_);
            s = {batch.data(), batch.data() + batch.size(), batch.empty()};
            return;
        }
        T *const block = blocks_ + (k - 2) * kBlockRecords;
        const std::size_t kept = s.size();
        if (s.pos != block)
            std::copy(s.pos, s.end, block);
        T *const end = fill(k, block + kept, block + kBlockRecords);
        s = {block, end, exhausted(2 * k) && exhausted(2 * k + 1)};
        BONSAI_ENSURE(s.size() >= step_ || s.drained,
                      "a topped-up block holds a step or ends its node");
    }

    /** Node @p k (a leaf or an internal node) has nothing left. */
    bool
    exhausted(std::size_t k) const
    {
        const Stream &s = k >= ways_ ? leaves_[k - ways_] : inner_[k];
        return s.drained && s.pos == s.end;
    }

    /** Merge steps from @p left and @p right into [out, last): when
     *  step_ is 8 and the output has room for 8, the 8-item step
     *  while both sides hold 8 items, or its padded form when every
     *  side short of 8 is drained; else one-item steps until a side
     *  or the output runs out. */
    T *
    mergeRun(Stream &left, Stream &right, T *out, T *const last) const
    {
#if BONSAI_AVX512
        if constexpr (RegisterMerged<T>) {
            const bool lfull = left.size() >= 8;
            const bool rfull = right.size() >= 8;
            if (step_ == 8 && last - out >= 8) {
                if (lfull && rfull)
                    return mergeSteps8Avx512(left.pos, left.end, right.pos,
                                             right.end, out, last);
                // Only a short side that nothing follows is padded.
                if ((lfull || left.drained) && (rfull || right.drained)) {
                    T *const start = out;
                    out = mergeSteps8Avx512<T, true>(
                        left.pos, left.end, right.pos, right.end, out,
                        last, left.drained ? 1 : 8, right.drained ? 1 : 8);
                    if (out != start)
                        return out;
                }
            }
        }
#endif
        return mergeSteps(
            left.pos, right.pos, out,
            std::min({static_cast<std::size_t>(last - out), left.size(),
                      right.size()}));
    }

    /** Items a merge step emits: 8 for register-merged items on an
     *  AVX-512F CPU, else 1. */
    std::size_t step_ = 1;
    std::size_t ways_ = 2;
    std::vector<Stream> leaves_; ///< leaf i is input i
    /** Heap-indexed internal nodes 2 .. ways_-1; the root (node 1)
     *  writes straight into the output. */
    std::vector<Stream> inner_;
    Refill refill_; ///< a streamed tree's leaf batches
    /** Node k's block starts at item (k - 2) * kBlockRecords. */
    T *blocks_ = nullptr;
    RecordBuffer<T> owned_; ///< the blocks when no arena is lent
    std::uint64_t total_ = 0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_TREE_HPP
