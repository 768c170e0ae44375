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
 * Cost: each record is compared and copied once per tree level, with
 * no data-dependent branch; a loser tree instead replays log2(ell)
 * unpredictable branches per record.  A node block is 2 KiB of
 * records, but never fewer than 32 (128 16-byte records, 85 Record128,
 * 32 gensort records), and the blocks take (ways - 2) of them: 252 KiB
 * of 16-byte records at ell = 128.  They live in an arena the caller
 * lends, so a lane that merges many trees in turn allocates them once
 * (BehavioralSorter::runStage, Phase2Merger), or in one the tree
 * owns.  Block size and placement do not change the merge order.
 */

#ifndef BONSAI_SORTER_MERGE_TREE_HPP
#define BONSAI_SORTER_MERGE_TREE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/contract.hpp"
#include "common/record_buffer.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class MergeTree
{
  public:
    /** Records per internal-node block: 2 KiB, at least 32. */
    static constexpr std::size_t kBlockRecords =
        std::max<std::size_t>(32, 2048 / sizeof(RecordT));

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
                       RecordBuffer<RecordT> *arena = nullptr)
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
            nodes_[ways_ + i] = {inputs[i].data() + lo,
                                 inputs[i].data() + hi, true};
            total_ += hi - lo;
        }
    }

    /** Merge @p members streamed inputs, each refilled by @p refill
     *  whenever its batch runs dry; blocks as above. */
    MergeTree(std::size_t members, Refill refill,
              RecordBuffer<RecordT> *arena = nullptr)
        : refill_(std::move(refill))
    {
        shape(members, arena);
        for (std::size_t i = 0; i < members; ++i)
            nodes_[ways_ + i].drained = false;
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
    struct Stream
    {
        const RecordT *pos = nullptr;
        const RecordT *end = nullptr;
        bool drained = true;

        std::size_t size() const
        {
            return static_cast<std::size_t>(end - pos);
        }
    };

    /**
     * Merge node @p k's children into [out, last) until it is full or
     * both children are drained; returns the end of what was written.
     * A child is refilled whenever its stream runs dry, so afterwards
     * it is either non-empty or drained.
     */
    RecordT *
    fill(std::size_t k, RecordT *out, RecordT *const last)
    {
        Stream &left = nodes_[2 * k];
        Stream &right = nodes_[2 * k + 1];
        while (out != last) {
            if (left.pos == left.end && !left.drained)
                refill(2 * k);
            if (right.pos == right.end && !right.drained)
                refill(2 * k + 1);
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
    shape(std::size_t inputs, RecordBuffer<RecordT> *arena)
    {
        while (ways_ < inputs)
            ways_ *= 2;
        nodes_.resize(2 * ways_);
        if (ways_ > 2) {
            RecordBuffer<RecordT> &store = arena ? *arena : owned_;
            blocks_ = store.first((ways_ - 2) * kBlockRecords).data();
            for (std::size_t k = 2; k < ways_; ++k)
                nodes_[k].drained = false;
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
            nodes_[k] = {batch.data(), batch.data() + batch.size(),
                         batch.empty()};
            return;
        }
        RecordT *const block = blocks_ + (k - 2) * kBlockRecords;
        RecordT *const end = fill(k, block, block + kBlockRecords);
        const Stream &left = nodes_[2 * k];
        const Stream &right = nodes_[2 * k + 1];
        nodes_[k] = {block, end,
                     left.pos == left.end && left.drained &&
                         right.pos == right.end && right.drained};
    }

    /**
     * The branch-free 2-way merge step, @p n times: take the right
     * head only when it is strictly smaller (ties go left).  Each step
     * consumes one record, so with n <= min(left, right) no bound
     * check is needed inside the loop.
     */
    static RecordT *
    mergeRun(Stream &left, Stream &right, RecordT *out, std::size_t n)
    {
        const RecordT *lp = left.pos;
        const RecordT *rp = right.pos;
        for (RecordT *const stop = out + n; out != stop; ++out) {
            const bool take_right = *rp < *lp;
            // Select the source by masking, not by a conditional the
            // compiler could turn back into a branch.
            const std::uintptr_t mask =
                std::uintptr_t{0} - std::uintptr_t{take_right};
            const auto l = reinterpret_cast<std::uintptr_t>(lp);
            const auto r = reinterpret_cast<std::uintptr_t>(rp);
            *out = *reinterpret_cast<const RecordT *>(l ^ ((l ^ r) & mask));
            rp += take_right;
            lp += !take_right;
        }
        left.pos = lp;
        right.pos = rp;
        return out;
    }

    std::size_t ways_ = 2;
    std::vector<Stream> nodes_; ///< heap-indexed; leaves at ways_ + i
    Refill refill_; ///< a streamed tree's leaf batches
    /** Node k's block starts at record (k - 2) * kBlockRecords. */
    RecordT *blocks_ = nullptr;
    RecordBuffer<RecordT> owned_; ///< the blocks when no arena is lent
    std::uint64_t total_ = 0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_TREE_HPP
