/**
 * @file
 * The simulator's leaf layout: how SimSorter and PipelineSimSorter
 * feed one merge stage to the cycle-level AMT.
 *
 * A merge stage consumes R sorted runs and produces G = ceil(R / ell)
 * runs.  To keep every leaf's reads sequential (batched DRAM access,
 * Section V-A), runs are assigned to leaves in contiguous blocks of G:
 * leaf j owns runs [j*G, (j+1)*G), and merge group g takes the g-th
 * run of every leaf.  Output run g is written sequentially.  The host
 * sorters merge contiguous run groups instead (sorter/run_groups.hpp),
 * so they agree with the simulator on keys but not on the order of
 * equal keys.
 */

#ifndef BONSAI_SORTER_STAGE_PLAN_HPP
#define BONSAI_SORTER_STAGE_PLAN_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"

namespace bonsai::sorter
{

/** Leaf/group decomposition of one merge stage. */
class StagePlan
{
  public:
    /**
     * @param runs Input runs, in buffer order.
     * @param ell Tree leaf count (maximum merge fan-in).
     * @param out_base Record offset where output runs start.
     */
    StagePlan(std::vector<RunSpan> runs, unsigned ell,
              std::uint64_t out_base = 0)
        : runs_(std::move(runs)), ell_(ell), outBase_(out_base)
    {
        BONSAI_REQUIRE(ell_ >= 1,
                       "a merge stage needs a fan-in of at least 1");
        const std::uint64_t r = runs_.size();
        groups_ = (r + ell_ - 1) / ell_;
        if (groups_ == 0)
            groups_ = 1;
    }

    std::uint64_t groups() const { return groups_; }

    /**
     * Runs owned by leaf @p j.  With several groups, leaf j owns the
     * contiguous block [j*G, (j+1)*G) so its reads stay sequential.
     * With a single (final, partial) group, runs are instead spread
     * across the leaves at a power-of-two stride: clustering R < ell
     * runs on the leftmost leaves would bottleneck the narrow
     * 1-merger levels in the middle of the tree, spreading keeps
     * every subtree supplied.
     */
    std::vector<RunSpan>
    leafRuns(unsigned j) const
    {
        std::vector<RunSpan> out;
        if (groups_ == 1) {
            const unsigned stride = spreadStride();
            if (j % stride == 0 && j / stride < runs_.size())
                out.push_back(runs_[j / stride]);
            else
                out.push_back(RunSpan{0, 0});
            return out;
        }
        const std::uint64_t begin = static_cast<std::uint64_t>(j) * groups_;
        for (std::uint64_t g = 0; g < groups_; ++g) {
            const std::uint64_t idx = begin + g;
            if (idx < runs_.size())
                out.push_back(runs_[idx]);
            else
                out.push_back(RunSpan{0, 0}); // padded empty run
        }
        return out;
    }

    /** The input runs merged into output run @p g. */
    std::vector<RunSpan>
    groupRuns(std::uint64_t g) const
    {
        std::vector<RunSpan> out;
        if (groups_ == 1) {
            for (const RunSpan &run : runs_) {
                if (run.length > 0)
                    out.push_back(run);
            }
            return out;
        }
        for (unsigned j = 0; j < ell_; ++j) {
            const std::uint64_t idx =
                static_cast<std::uint64_t>(j) * groups_ + g;
            if (idx < runs_.size() && runs_[idx].length > 0)
                out.push_back(runs_[idx]);
        }
        return out;
    }

    /** Leaf stride used to spread a single group's runs. */
    unsigned
    spreadStride() const
    {
        // An empty plan has no runs to spread; without this guard the
        // doubling condition (2 * stride * 0 <= ell) never fails.
        if (runs_.empty())
            return 1;
        unsigned stride = 1;
        while (2ULL * stride * runs_.size() <= ell_)
            stride *= 2;
        return stride;
    }

    /** Output runs (offsets assigned sequentially from out_base). */
    std::vector<RunSpan>
    outputRuns() const
    {
        std::vector<RunSpan> out;
        std::uint64_t offset = outBase_;
        for (std::uint64_t g = 0; g < groups_; ++g) {
            std::uint64_t len = 0;
            for (const RunSpan &run : groupRuns(g))
                len += run.length;
            out.push_back(RunSpan{offset, len});
            offset += len;
        }
        return out;
    }

    /** Total records moved by the stage. */
    std::uint64_t
    totalRecords() const
    {
        std::uint64_t total = 0;
        for (const RunSpan &run : runs_)
            total += run.length;
        return total;
    }

  private:
    std::vector<RunSpan> runs_;
    unsigned ell_;
    std::uint64_t outBase_;
    std::uint64_t groups_ = 1;
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_STAGE_PLAN_HPP
