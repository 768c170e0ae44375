/**
 * @file
 * Merge Path partitioner: splits one ell-way merge into T disjoint
 * slices that can be merged by independent threads (Green, Odeh, Birk,
 * "Merge Path — A Visually Intuitive Approach to Parallel Merging";
 * FLiMS applies the same intra-merge decomposition in hardware).
 *
 * The behavioral sorter's final stage always collapses to a single
 * merge group, so group-level parallelism alone leaves the largest
 * merge of the whole dataset running on one core.  This partitioner
 * computes, for a set of sorted input spans and a global output rank
 * r, the *cut vector* c where c[i] is the number of records input i
 * contributes to the first r records of the merged output.  Cutting at
 * ranks {t * total / T} yields T slices with disjoint per-input ranges
 * and disjoint output ranges, each mergeable independently.
 *
 * Determinism: ranks are defined by the augmented total order
 *
 *     (key, input index, position within input)
 *
 * which has no ties (index/position pairs are unique).  The merge
 * kernel emits that order too (MergeTree's ties go left, to the lower
 * input index), so the concatenation of the slice merges is
 * byte-identical to the serial merge for any slice count — including
 * all-equal-key inputs.
 *
 * Cost: one cut is O(sum_i log n_i) rank evaluations, each of which
 * binary-searches every input — O((ell log n)^2) comparisons per cut,
 * negligible next to the O(n log ell) merge it parallelizes.
 */

#ifndef BONSAI_SORTER_MERGE_PATH_HPP
#define BONSAI_SORTER_MERGE_PATH_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contract.hpp"

namespace bonsai::sorter
{

/**
 * The augmented-order boundary predicate, stated once for every
 * Merge Path user (the in-memory partitioner below and the
 * out-of-core splitter in sorter/splitter.hpp): does @p rec of some
 * run precede the @p pivot element in the (key, run index, position)
 * total order?
 *
 * @p run_precedes_pivot is the tie rule: true when rec's run index is
 * lower than the pivot's (j < p — equal keys precede the pivot, so
 * the boundary is an upper bound), false when it is higher (j > p —
 * only strictly smaller keys precede, a lower bound).  Positions
 * within the pivot's own run order themselves; no predicate needed.
 */
template <typename RecordT>
inline bool
precedesPivot(const RecordT &rec, const RecordT &pivot,
              bool run_precedes_pivot)
{
    return run_precedes_pivot ? !(pivot < rec) : rec < pivot;
}

template <typename RecordT>
class MergePath
{
  public:
    explicit MergePath(std::vector<std::span<const RecordT>> inputs)
        : inputs_(std::move(inputs))
    {
        for (const auto &in : inputs_)
            total_ += in.size();
    }

    std::uint64_t totalRecords() const { return total_; }

    /**
     * Cut vector for output rank @p rank: cuts[i] records of input i
     * precede rank @p rank in the augmented order; sum(cuts) == rank.
     */
    std::vector<std::uint64_t>
    cutsForRank(std::uint64_t rank) const
    {
        BONSAI_REQUIRE(rank <= total_,
                       "output rank beyond the merged extent");
        std::vector<std::uint64_t> cuts(inputs_.size(), 0);
        if (rank == 0)
            return cuts;
        if (rank == total_) {
            for (std::size_t i = 0; i < inputs_.size(); ++i)
                cuts[i] = inputs_[i].size();
            return cuts;
        }
        // The rank-th element e* of the augmented order lives in
        // exactly one input; rankOf is strictly increasing in the
        // position within each input, so binary search each input for
        // a position of global rank == rank until e* is found.
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            std::uint64_t lo = 0;
            std::uint64_t hi = inputs_[i].size();
            while (lo < hi) { // first pos with rankOf >= rank
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (rankOf(i, mid) < rank)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            if (lo < inputs_[i].size() && rankOf(i, lo) == rank) {
                for (std::size_t j = 0; j < inputs_.size(); ++j)
                    cuts[j] = countLess(j, i, lo);
                return cuts;
            }
        }
        // Unreachable when every input span is sorted under a
        // consistent strict weak order; returning any cut vector from
        // here would silently corrupt the merged output, so fail
        // loudly in release builds too (not compiled out like the
        // contract macros).
        bonsai::contracts::fail(
            "invariant", "rankOf(i, lo) == rank for some input",
            __FILE__, __LINE__,
            "MergePath: rank element not found (input span unsorted "
            "or RecordT comparison inconsistent)");
    }

    /**
     * Cut vectors for @p parts equal slices: parts+1 boundaries, with
     * boundary[0] all-zero and boundary[parts] the input sizes.  Slice
     * t merges input ranges [boundary[t][i], boundary[t+1][i]) into
     * output ranks [t * total / parts, (t+1) * total / parts).
     */
    std::vector<std::vector<std::uint64_t>>
    partition(unsigned parts) const
    {
        BONSAI_REQUIRE(parts >= 1, "need at least one slice");
        std::vector<std::vector<std::uint64_t>> bounds;
        bounds.reserve(parts + 1);
        for (unsigned t = 0; t <= parts; ++t)
            bounds.push_back(cutsForRank(total_ * t / parts));
        return bounds;
    }

  private:
    /**
     * Records of input @p j that precede the pivot element (input
     * @p pi, position @p pp) in the augmented order.
     */
    std::uint64_t
    countLess(std::size_t j, std::size_t pi, std::uint64_t pp) const
    {
        if (j == pi)
            return pp;
        const RecordT &pivot = inputs_[pi][pp];
        const auto &in = inputs_[j];
        // The shared tie rule (precedesPivot above) makes this an
        // upper_bound for j < pi and a lower_bound for j > pi.
        return static_cast<std::uint64_t>(
            std::partition_point(in.begin(), in.end(),
                                 [&](const RecordT &rec) {
                                     return precedesPivot(rec, pivot,
                                                          j < pi);
                                 }) -
            in.begin());
    }

    /** Global augmented rank of the element (input i, position p). */
    std::uint64_t
    rankOf(std::size_t i, std::uint64_t p) const
    {
        std::uint64_t rank = 0;
        for (std::size_t j = 0; j < inputs_.size(); ++j)
            rank += countLess(j, i, p);
        return rank;
    }

    std::vector<std::span<const RecordT>> inputs_;
    std::uint64_t total_ = 0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_MERGE_PATH_HPP
