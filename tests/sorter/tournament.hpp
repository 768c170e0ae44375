/**
 * @file
 * The tournament (loser) tree merge (Knuth TAOCP Vol. 3, 5.4.1): the
 * independent reference the differential tests pin MergeTree's
 * output to, byte for byte.
 *
 * Structure: leaves are input cursors, internal nodes store the loser
 * of their subtree's tournament, the overall winner is kept outside
 * the tree.  Each pop replays only the winner's root path:
 * O(log ell) comparisons.
 *
 * Equal keys are broken by input index, so the tree emits the unique
 * sequence ordered by (key, input index, position) — the same
 * augmented total order the Merge Path partitioner cuts on and
 * MergeTree (sorter/merge_tree.hpp) emits.
 *
 * The cursor-set parameter provides the merge's view of its inputs:
 *
 *   std::size_t size() const;            // number of input cursors
 *   bool exhausted(std::size_t i) const; // cursor i has no head
 *   const RecordT &head(std::size_t i) const;
 *   void advance(std::size_t i);         // consume cursor i's head
 *
 * head()/advance() are only called on non-exhausted cursors, and
 * head() must stay valid until the next advance() on the same cursor.
 */

#ifndef BONSAI_TESTS_SORTER_TOURNAMENT_HPP
#define BONSAI_TESTS_SORTER_TOURNAMENT_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "common/contract.hpp"

namespace bonsai::sorter
{

template <typename RecordT, typename CursorSetT>
class TournamentTree
{
  public:
    /** Build the initial tournament over @p cursors (held by
     *  reference for the tree's lifetime). */
    explicit TournamentTree(CursorSetT &cursors) : cursors_(&cursors)
    {
        ways_ = 1;
        while (ways_ < cursors_->size())
            ways_ *= 2;
        tree_.assign(ways_, kEmpty);
        winner_ = buildTournament(1);
    }

    /** True when all cursors are exhausted. */
    bool done() const { return winner_ == kEmpty; }

    /** Pop the globally smallest record in the augmented order. */
    RecordT
    pop()
    {
        BONSAI_REQUIRE(!done(), "pop from an exhausted tournament");
        const std::size_t src = winner_;
        const RecordT out = cursors_->head(src);
        cursors_->advance(src);
        std::size_t candidate =
            cursors_->exhausted(src) ? kEmpty : src;
        // Replay the winner's root path against the stored losers.
        for (std::size_t node = (src + ways_) / 2; node >= 1;
             node /= 2) {
            if (beats(tree_[node], candidate))
                std::swap(tree_[node], candidate);
        }
        winner_ = candidate;
        return out;
    }

  private:
    static constexpr std::size_t kEmpty =
        static_cast<std::size_t>(-1);

    /** Does cursor @p a beat cursor @p b?  Smaller head wins; equal
     *  keys go to the lower input index (augmented order). */
    bool
    beats(std::size_t a, std::size_t b) const
    {
        if (a == kEmpty)
            return false;
        if (b == kEmpty)
            return true;
        if (cursors_->head(a) < cursors_->head(b))
            return true;
        if (cursors_->head(b) < cursors_->head(a))
            return false;
        return a < b;
    }

    /** Cursor at leaf slot @p slot, or kEmpty. */
    std::size_t
    slotSource(std::size_t slot) const
    {
        if (slot < cursors_->size() && !cursors_->exhausted(slot))
            return slot;
        return kEmpty;
    }

    /** Bottom-up initial tournament; returns the subtree winner and
     *  records losers on the way up. */
    std::size_t
    buildTournament(std::size_t node)
    {
        if (node >= ways_)
            return slotSource(node - ways_);
        const std::size_t left = buildTournament(2 * node);
        const std::size_t right = buildTournament(2 * node + 1);
        if (beats(left, right)) {
            tree_[node] = right;
            return left;
        }
        tree_[node] = left;
        return right;
    }

    CursorSetT *cursors_;
    std::vector<std::size_t> tree_; ///< losers, heap-indexed
    std::size_t ways_ = 1;
    std::size_t winner_ = kEmpty;
};

} // namespace bonsai::sorter

#endif // BONSAI_TESTS_SORTER_TOURNAMENT_HPP
