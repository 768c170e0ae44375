/**
 * @file
 * The in-memory ell-way merge kernel: a binary tree of stable,
 * branch-free 2-way mergers joined by small blocks — the software
 * shape of the paper's AMT, where 2-way mergers are joined by FIFOs
 * (Section III), with the branch-free merge step of FLiMS.
 *
 * Shape: the leaves are the input spans in input order, padded to a
 * power of two with empty leaves.  Every internal node merges its two
 * children into a block of kBlockRecords records, which its parent
 * drains and asks it to refill; the root writes straight into the
 * output.  A leaf is its input range itself, so nothing is copied
 * into the tree.
 *
 * Order: a node takes its right head only when it is strictly smaller
 * than its left head, so ties go left.  With the leaves in input
 * order, the tree emits exactly the augmented (key, input index,
 * position) order — the order the Merge Path partitioner cuts on and
 * the streamed merge's TournamentTree pops in.  A tree over a Merge
 * Path slice (per-input [begin, end) ranges) therefore writes exactly
 * the records the whole merge writes at that slice's output ranks.
 *
 * Cost: each record is compared and copied once per tree level, with
 * no data-dependent branch; a loser tree instead replays log2(ell)
 * unpredictable branches per record.  A node block is 2 KiB of
 * records, but never fewer than 32 (128 16-byte records, 85 Record128,
 * 32 gensort records), and the blocks take (ways - 2) of them: 252 KiB
 * of 16-byte records at ell = 128.  They live in an arena the caller
 * lends, so a lane that merges many trees in turn allocates them once
 * (BehavioralSorter::runStage), or in one the tree owns.  Block size
 * and placement do not change the merge order.
 */

#ifndef BONSAI_SORTER_MERGE_TREE_HPP
#define BONSAI_SORTER_MERGE_TREE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
        while (ways_ < inputs.size())
            ways_ *= 2;
        nodes_.resize(2 * ways_);
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
        // Nodes 2 .. ways-1 merge into blocks; the root (node 1)
        // merges into the output.
        if (ways_ > 2) {
            RecordBuffer<RecordT> &store = arena ? *arena : owned_;
            blocks_ = store.first((ways_ - 2) * kBlockRecords).data();
            for (std::size_t k = 2; k < ways_; ++k)
                nodes_[k].drained = false;
        }
    }

    /** Records the merge writes. */
    std::uint64_t size() const { return total_; }

    /** Write the merged records to [out, out + size()); returns the end
     *  of the output.  A tree merges once. */
    RecordT *
    merge(RecordT *out)
    {
        if (ways_ == 1) {
            const Stream &leaf = nodes_[1];
            return std::copy(leaf.pos, leaf.end, out);
        }
        RecordT *const last = fill(1, out, out + total_);
        BONSAI_ENSURE(last == out + total_,
                      "the merge writes every input record");
        return last;
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

    /** Refill internal node @p k's (empty) block from its children. */
    void
    refill(std::size_t k)
    {
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

    std::size_t ways_ = 1;
    std::vector<Stream> nodes_; ///< heap-indexed; leaves at ways_ + i
    /** Node k's block starts at record (k - 2) * kBlockRecords. */
    RecordT *blocks_ = nullptr;
    RecordBuffer<RecordT> owned_; ///< the blocks when no arena is lent
    std::uint64_t total_ = 0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_TREE_HPP
