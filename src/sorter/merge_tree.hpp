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
 * runs, whatever the batch size.  A node of 16-byte Records on a CPU
 * with AVX-512F emits 8 records per step, as the paper's k-merger
 * emits k per cycle (Section II), and in the same order: a Merge Path
 * co-rank over the next 8 records of each child counts the outputs
 * the left gives, where a left record counts when its key is <= that
 * of the right record it is paired with, so ties go left; a 3-level
 * bitonic merge then orders the 8 on (key, rank), the rank being the
 * record's side and position (left 0-7, right 8-15).  Ranks are
 * unique, so every tie resolves by side, then position, as the
 * one-record step resolves it.  The one-record step runs the last
 * n mod 8 steps, other record types and other CPUs.
 *
 * Entries: an in-memory tree over a KeyPrefixed record type (a
 * gensort record) moves 16-byte KeyEntry tags — the record's 8-byte
 * big-endian key prefix and its address — instead of the records, as
 * the paper moves a 10-byte key and 6-byte index, not the 100-byte
 * record.  Leaf-level nodes build entries from their input ranges,
 * inner nodes merge entries, and only the root dereferences them and
 * copies records into the output.  An entry compares as its record
 * does (the prefixes decide unless they tie, and then the records
 * do), so every decision, ties included, is the one a tree of record
 * blocks makes.  A streamed tree keeps record blocks: its leaf
 * batches are overwritten on refill while entries pointing into them
 * could still wait in ancestor blocks.  Other record types (Record,
 * Record128) keep record blocks everywhere.
 *
 * Cost: each item is compared and copied once per tree level, with no
 * data-dependent branch; a loser tree instead replays log2(ell)
 * unpredictable branches per record.  The one-record step is bound
 * by its latency (load the heads, compare, move a pointer); the
 * 8-record step pays that chain (load, co-rank, popcount) once per
 * 8 records and keeps its merge network off it.  With entries, a
 * record is copied once per tree, at the root, and an entry per
 * level.  A node block is 2 KiB, but never fewer than 32 items (128
 * 16-byte records or entries, 85 Record128, 32 gensort records), and
 * the blocks take (ways - 2) of them: 252 KiB at ell = 128.  They
 * live in an arena the caller lends, so a lane that merges many trees
 * in turn allocates them once (BehavioralSorter::runStage,
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
#include <vector>

#include "common/contract.hpp"
#include "common/cpu.hpp"
#include "common/record.hpp"
#include "common/record_buffer.hpp"

namespace bonsai::sorter
{

namespace merge_detail
{

/** Write @p in to @p out as what a node of output type OutT writes:
 *  the item itself, a record's entry, or an entry's record. */
template <typename OutT, typename InT>
void
put(OutT &out, const InT &in)
{
    if constexpr (std::is_same_v<OutT, InT>)
        out = in;
    else if constexpr (std::is_same_v<OutT, KeyEntry<InT>>)
        out = OutT::of(in);
    else
        out = *in.rec;
}

} // namespace merge_detail

/**
 * The branch-free 2-way merge step, @p n times, from the heads at
 * @p lp and @p rp to @p out: take the right head only when it is
 * strictly smaller (ties go left).  Each step consumes one item, so
 * with n <= min(left, right) no bound check is needed inside the
 * loop.  Entries compare as their records do, so the steps are those
 * of a record merge.  Advances @p lp and @p rp past what they gave;
 * returns the end of the output.
 */
template <typename InT, typename OutT>
OutT *
mergeSteps(const InT *&lp, const InT *&rp, OutT *out, std::size_t n)
{
    const InT *l = lp;
    const InT *r = rp;
    for (OutT *const stop = out + n; out != stop; ++out) {
        const bool take_right = *r < *l;
        // Select the source by masking, not by a conditional the
        // compiler could turn back into a branch.
        const std::uintptr_t mask =
            std::uintptr_t{0} - std::uintptr_t{take_right};
        const auto li = reinterpret_cast<std::uintptr_t>(l);
        const auto ri = reinterpret_cast<std::uintptr_t>(r);
        merge_detail::put(
            *out, *reinterpret_cast<const InT *>(li ^ ((li ^ ri) & mask)));
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

/** One level of an 8-lane ascending bitonic merge on (key, rank):
 *  lane j and lane j ^ kStride exchange when out of order. */
template <unsigned kStride>
__attribute__((target("avx512f"))) inline void
bitonicLevel(__m512i &keys, __m512i &ranks)
{
    constexpr long long s = kStride;
    const __m512i partner =
        _mm512_setr_epi64(s, 1 ^ s, 2 ^ s, 3 ^ s, 4 ^ s, 5 ^ s, 6 ^ s, 7 ^ s);
    // Two-source permutes with both sources the same register, as in
    // the presorter: GCC 12's one-source form trips -Wuninitialized.
    const __m512i pk = _mm512_permutex2var_epi64(keys, partner, keys);
    const __m512i pr = _mm512_permutex2var_epi64(ranks, partner, ranks);
    // The partner comes first: a smaller key, or the same key and a
    // smaller rank.  Ranks are unique, so no two lanes tie.
    const __mmask8 partner_first =
        _mm512_cmplt_epu64_mask(pk, keys) |
        _mm512_mask_cmplt_epu64_mask(_mm512_cmpeq_epu64_mask(pk, keys), pr,
                                     ranks);
    // The low lane of a pair keeps the first record, the high lane
    // the second.
    constexpr __mmask8 high_lanes =
        kStride == 4 ? 0xF0 : kStride == 2 ? 0xCC : 0xAA;
    const __mmask8 take = partner_first ^ high_lanes;
    keys = _mm512_mask_blend_epi64(take, keys, pk);
    ranks = _mm512_mask_blend_epi64(take, ranks, pr);
}

} // namespace merge_detail

/**
 * n / 8 steps of the 8-record merge step over Records, from the heads
 * at @p lp and @p rp to @p out; each writes the next 8 records the
 * one-record step would, byte for byte.  Requires n <= min(left,
 * right), so the 8 records a step reads from each side are in
 * bounds.  Advances @p lp and @p rp past what they gave; returns the
 * end of the output.  Call only when haveAvx512f().
 */
__attribute__((target("avx512f"))) inline Record *
mergeSteps8Avx512(const Record *&lp, const Record *&rp, Record *out,
                  std::size_t n)
{
    static_assert(sizeof(Record) == 16 && offsetof(Record, key) == 0 &&
                      offsetof(Record, value) == 8,
                  "a Record is one key word then one value word");
    // Word indices into two registers of 4 records each.
    const __m512i keys = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i keys_reversed =
        _mm512_setr_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i values = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    // Left record j has rank j and right record j rank 8 + j, so the
    // (key, rank) order is the (key, side, position) order.
    const __m512i left_ranks = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    const __m512i right_ranks_reversed =
        _mm512_setr_epi64(15, 14, 13, 12, 11, 10, 9, 8);
    const __m512i low = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i high = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);

    const Record *l = lp;
    const Record *r = rp;
    for (Record *const stop = out + n / 8 * 8; out != stop; out += 8) {
        const __m512i l0 = _mm512_loadu_si512(l);
        const __m512i l1 = _mm512_loadu_si512(l + 4);
        const __m512i r0 = _mm512_loadu_si512(r);
        const __m512i r1 = _mm512_loadu_si512(r + 4);
        const __m512i lk = _mm512_permutex2var_epi64(l0, keys, l1);
        // Lane j: the key of right record 7 - j.
        const __m512i rk = _mm512_permutex2var_epi64(r0, keys_reversed, r1);
        // The co-rank: lane j is set iff left record j comes before
        // right record 7 - j.  The set lanes are a prefix, and their
        // count a is how many of the 8 outputs the left gives.
        const __mmask8 from_left = _mm512_cmple_epu64_mask(lk, rk);
        const auto a = static_cast<unsigned>(__builtin_popcount(from_left));
        // Left records 0 .. a-1 ascending, then right records
        // 7-a .. 0 descending: a bitonic sequence.
        __m512i k = _mm512_mask_blend_epi64(from_left, rk, lk);
        __m512i rank =
            _mm512_mask_blend_epi64(from_left, right_ranks_reversed,
                                    left_ranks);
        merge_detail::bitonicLevel<4>(k, rank);
        merge_detail::bitonicLevel<2>(k, rank);
        merge_detail::bitonicLevel<1>(k, rank);
        // Gather each output's value by its rank, then interleave.
        const __m512i v = _mm512_permutex2var_epi64(
            _mm512_permutex2var_epi64(l0, values, l1), rank,
            _mm512_permutex2var_epi64(r0, values, r1));
        _mm512_storeu_si512(out, _mm512_permutex2var_epi64(k, low, v));
        _mm512_storeu_si512(out + 4, _mm512_permutex2var_epi64(k, high, v));
        l += a;
        r += 8 - a;
    }
    lp = l;
    rp = r;
    return out;
}
#endif // BONSAI_AVX512

/**
 * The merge tree over RecordT inputs whose internal-node blocks hold
 * BlockT: by default a KeyEntry per record of a KeyPrefixed type, else
 * the records.  Entries may sit in a block only while the records
 * they point to stay put, so a streamed tree, whose leaf batches are
 * overwritten on refill, holds records.
 */
template <typename RecordT,
          typename BlockT = std::conditional_t<KeyPrefixed<RecordT>,
                                               KeyEntry<RecordT>, RecordT>>
class MergeTree
{
    static_assert(std::is_same_v<BlockT, RecordT> ||
                      std::is_same_v<BlockT, KeyEntry<RecordT>>,
                  "node blocks hold records or their key entries");

  public:
    using Block = BlockT;

    /** Items per internal-node block: 2 KiB, at least 32. */
    static constexpr std::size_t kBlockRecords =
        std::max<std::size_t>(32, 2048 / sizeof(BlockT));

    /** Hands out member i's next batch, empty once it is drained;
     *  a batch stays valid until the member's next refill. */
    using Refill = std::function<std::span<const RecordT>(std::size_t)>;

    /**
     * Merge input i over positions [begin[i], end[i]) — a Merge Path
     * slice — or over its full extent when @p begin and @p end are
     * empty.  Node blocks live in @p arena, which grows as needed and
     * is lent to one live tree at a time, or in the tree's own buffer
     * when it is null.  The inputs must outlive the tree.
     */
    explicit MergeTree(std::span<const std::span<const RecordT>> inputs,
                       std::span<const std::uint64_t> begin = {},
                       std::span<const std::uint64_t> end = {},
                       RecordBuffer<BlockT> *arena = nullptr)
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
              RecordBuffer<BlockT> *arena = nullptr)
        requires std::is_same_v<BlockT, RecordT>
        : refill_(std::move(refill))
    {
        shape(members, arena);
        for (std::size_t i = 0; i < members; ++i)
            leaves_[i].drained = false;
    }

    /** Records an in-memory merge writes. */
    std::uint64_t size() const { return total_; }

    /** Write an in-memory merge to [out, out + size()); returns the
     *  end of the output.  A tree merges once. */
    RecordT *
    merge(RecordT *out)
    {
        RecordT *const last = fill(out, out + total_);
        BONSAI_ENSURE(last == out + total_,
                      "the merge writes every input record");
        return last;
    }

    /** Write the next merged records to [out, last), stopping early
     *  only when every input is drained; returns the end of what was
     *  written. */
    RecordT *
    fill(RecordT *out, RecordT *last)
    {
        return fill(1, out, last);
    }

  private:
    /** A node's unread output: a leaf's input range or an internal
     *  node's block.  Drained: nothing follows [pos, end). */
    template <typename T>
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
     * The root writes records, every other node BlockT.
     */
    template <typename OutT>
    OutT *
    fill(std::size_t k, OutT *out, OutT *const last)
    {
        if (2 * k >= ways_)
            return fill(k, leaves_[2 * k - ways_],
                        leaves_[2 * k + 1 - ways_], out, last);
        return fill(k, inner_[2 * k], inner_[2 * k + 1], out, last);
    }

    /** As above, from node @p k's children @p left and @p right.  A
     *  child is refilled whenever its stream runs dry, so afterwards
     *  it is either non-empty or drained. */
    template <typename InT, typename OutT>
    OutT *
    fill(std::size_t k, Stream<InT> &left, Stream<InT> &right, OutT *out,
         OutT *const last)
    {
        while (out != last) {
            if (left.pos == left.end && !left.drained)
                refill(2 * k);
            if (right.pos == right.end && !right.drained)
                refill(2 * k + 1);
            const auto room = static_cast<std::size_t>(last - out);
            if (left.pos == left.end || right.pos == right.end) {
                Stream<InT> &rest = left.pos == left.end ? right : left;
                const std::size_t n = std::min(room, rest.size());
                if (n == 0)
                    break; // both children drained
                for (const InT *const stop = rest.pos + n;
                     rest.pos != stop; ++rest.pos, ++out)
                    merge_detail::put(*out, *rest.pos);
                continue;
            }
            out = mergeRun(left, right, out,
                           std::min({room, left.size(), right.size()}));
        }
        return out;
    }

    /** Size the tree for @p inputs leaves: at least 2, padded to a
     *  power of two with leaves that start drained.  Nodes 2 .. ways-1
     *  merge into blocks in @p arena (or the tree's own buffer), the
     *  root (node 1) into the output. */
    void
    shape(std::size_t inputs, RecordBuffer<BlockT> *arena)
    {
        while (ways_ < inputs)
            ways_ *= 2;
        leaves_.resize(ways_);
        inner_.resize(ways_);
        if (ways_ > 2) {
            RecordBuffer<BlockT> &store = arena ? *arena : owned_;
            blocks_ = store.first((ways_ - 2) * kBlockRecords).data();
            for (std::size_t k = 2; k < ways_; ++k)
                inner_[k].drained = false;
        }
    }

    /** Refill node @p k's (empty) stream: a streamed leaf from its
     *  member's next batch, an internal node's block from its
     *  children. */
    void
    refill(std::size_t k)
    {
        if (k >= ways_) {
            const std::span<const RecordT> batch = refill_(k - ways_);
            leaves_[k - ways_] = {batch.data(),
                                  batch.data() + batch.size(),
                                  batch.empty()};
            return;
        }
        // A block stops short only when both children are drained.
        BlockT *const block = blocks_ + (k - 2) * kBlockRecords;
        BlockT *const end = fill(k, block, block + kBlockRecords);
        inner_[k] = {block, end, end != block + kBlockRecords};
    }

    /** @p n merge steps from @p left and @p right: 8 records a step
     *  while 8 remain, when the items are Records and the CPU has
     *  AVX-512F, then one a step. */
    template <typename InT, typename OutT>
    static OutT *
    mergeRun(Stream<InT> &left, Stream<InT> &right, OutT *out,
             std::size_t n)
    {
#if BONSAI_AVX512
        if constexpr (std::is_same_v<InT, Record> &&
                      std::is_same_v<OutT, Record>) {
            if (n >= 8 && haveAvx512f()) {
                out = mergeSteps8Avx512(left.pos, right.pos, out, n);
                n %= 8;
            }
        }
#endif
        return mergeSteps(left.pos, right.pos, out, n);
    }

    std::size_t ways_ = 2;
    std::vector<Stream<RecordT>> leaves_; ///< leaf i is input i
    /** Heap-indexed internal nodes 2 .. ways_-1; the root (node 1)
     *  writes straight into the output. */
    std::vector<Stream<BlockT>> inner_;
    Refill refill_; ///< a streamed tree's leaf batches
    /** Node k's block starts at item (k - 2) * kBlockRecords. */
    BlockT *blocks_ = nullptr;
    RecordBuffer<BlockT> owned_; ///< the blocks when no arena is lent
    std::uint64_t total_ = 0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_TREE_HPP
