/**
 * @file
 * The host's merge groups, shared by the in-memory stage loop
 * (BehavioralSorter::mergeRuns) and the streamed passes
 * (Phase2Merger).
 *
 * A stage over R runs at fan-in ell merges G = ceil(R / ell) groups,
 * and group g takes the contiguous, balanced index range
 * [g R / G, (g + 1) R / G) of the run list: floor(R / G) or
 * ceil(R / G) runs each.  Its output run covers exactly its members'
 * record range, so the output runs stay in input order.  Every merge
 * is stable in member order (MergeTree: ties go to the lower member),
 * so equal keys keep their run order through every stage, and, the
 * presort being stable too, the sort's output is std::stable_sort of
 * its input, whatever the fan-in, the chunk size or the number of
 * passes.
 *
 * The cycle simulator keeps the paper's leaf layout instead
 * (sorter/stage_plan.hpp).
 */

#ifndef BONSAI_SORTER_RUN_GROUPS_HPP
#define BONSAI_SORTER_RUN_GROUPS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"

namespace bonsai::sorter
{

/** The merge groups of one stage, as index ranges into its runs. */
class RunGroups
{
  public:
    /**
     * @param runs The stage's input runs, each starting where the one
     *        before it ends; they must outlive this object.
     * @param ell Merge fan-in: the most runs a group takes.
     */
    RunGroups(std::span<const RunSpan> runs, unsigned ell)
        : runs_(runs)
    {
        BONSAI_REQUIRE(ell >= 1 && !runs_.empty(),
                       "a merge stage needs a fan-in and a run");
        for (std::size_t i = 1; i < runs_.size(); ++i)
            BONSAI_REQUIRE(runs_[i].offset ==
                               runs_[i - 1].offset + runs_[i - 1].length,
                           "a stage's runs are adjacent, in order");
        count_ = (runs_.size() + ell - 1) / ell;
    }

    std::uint64_t count() const { return count_; }

    /** The runs group @p g merges. */
    std::span<const RunSpan>
    members(std::uint64_t g) const
    {
        return runs_.subspan(first(g), first(g + 1) - first(g));
    }

    /** Most members of any group: ceil(R / G). */
    std::uint64_t
    widest() const
    {
        return (runs_.size() + count_ - 1) / count_;
    }

    /** Group @p g's output run: its members' record range. */
    RunSpan
    output(std::uint64_t g) const
    {
        const std::span<const RunSpan> m = members(g);
        return {m.front().offset,
                m.back().offset + m.back().length - m.front().offset};
    }

    /** Every group's output run, in group order. */
    std::vector<RunSpan>
    outputs() const
    {
        std::vector<RunSpan> out;
        out.reserve(count_);
        for (std::uint64_t g = 0; g < count_; ++g)
            out.push_back(output(g));
        return out;
    }

    /** Records the stage moves. */
    std::uint64_t
    totalRecords() const
    {
        return runs_.back().offset + runs_.back().length -
            runs_.front().offset;
    }

  private:
    /** Index of group @p g's first run (g = count() gives R). */
    std::uint64_t
    first(std::uint64_t g) const
    {
        return g * runs_.size() / count_;
    }

    std::span<const RunSpan> runs_;
    std::uint64_t count_ = 0;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_RUN_GROUPS_HPP
