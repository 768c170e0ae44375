/**
 * @file
 * Out-of-core splitter for the final merge pass — Merge Path's
 * boundary search at batch granularity over a RunStore.
 *
 * The final pass merges one group of runs straight into the output
 * sink; to parallelize it, the key space is cut into slices along
 * pivots chosen in the augmented (key, run index, position) order.
 * Each run's boundary for a pivot is found out of core: binary-search
 * the run's batch heads with 1-record reads, then partition one
 * <= batch window.  The tie rule is the shared Merge Path predicate
 * (sorter::precedesPivot in merge_path.hpp) — stated once for the
 * in-memory partitioner and this probe alike — so the concatenated
 * slice merges are byte-identical to the serial merge, including
 * on equal-key floods.
 */

#ifndef BONSAI_SORTER_SPLITTER_HPP
#define BONSAI_SORTER_SPLITTER_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/run.hpp"
#include "io/buffer_pool.hpp"
#include "io/pool_lease.hpp"
#include "io/run_store.hpp"
#include "sorter/merge_path.hpp"

namespace bonsai::sorter
{

/**
 * Records of run @p m preceding @p pivot in the augmented order.
 * @p run_precedes_pivot encodes the tie rule exactly as
 * precedesPivot does: true for runs left of the pivot's run (equal
 * keys precede the pivot), false for runs right of it.  @p win is a
 * scratch window of @p win_cap records (one pool batch).
 */
template <typename RecordT>
std::uint64_t
storedRunBoundary(const io::RunStore<RecordT> &src, const RunSpan &m,
                  const RecordT &pivot, bool run_precedes_pivot,
                  RecordT *win, std::uint64_t win_cap)
{
    if (m.length == 0)
        return 0;
    const auto before = [&](const RecordT &rec) {
        return precedesPivot(rec, pivot, run_precedes_pivot);
    };
    const std::uint64_t batch = win_cap;
    const std::uint64_t nb = (m.length + batch - 1) / batch;
    std::uint64_t lo = 0; // batch heads below lo are `before`
    std::uint64_t hi = nb;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        RecordT head;
        src.readAt(m.offset + mid * batch, &head, 1,
                   "final-pass splitter boundary probe");
        if (before(head))
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == 0)
        return 0; // even the first record is past the boundary
    const std::uint64_t start = (lo - 1) * batch;
    const std::uint64_t len =
        std::min<std::uint64_t>(batch, m.length - start);
    src.readAt(m.offset + start, win, len,
               "final-pass splitter boundary window");
    const RecordT *split = std::partition_point(win, win + len, before);
    return start + static_cast<std::uint64_t>(split - win);
}

/**
 * Cut matrix for the splitter-partitioned final pass:
 * cuts[t][j] = records of member j that precede slice t's start in
 * the augmented (key, run index, position) order.  Row 0 is all
 * zeros, row @p slices is the member lengths, and rows are monotone —
 * consecutive rows delimit disjoint sub-spans whose concatenation in
 * t order is exactly the serial merge's output (any monotone
 * sequence of consistent cuts is).
 *
 * Pivots are sampled batch-aligned from the stored runs so every
 * probe is a 1-record readAt; the boundary scratch window is one pool
 * buffer, leased for the duration of the probes.
 */
template <typename RecordT>
std::vector<std::vector<std::uint64_t>>
finalSliceCuts(const io::RunStore<RecordT> &src,
               std::span<const RunSpan> members, unsigned slices,
               io::BufferPool<RecordT> &bufs)
{
    struct Sample
    {
        RecordT rec;
        std::size_t j = 0;
        std::uint64_t pos = 0;
    };
    const std::uint64_t batch = bufs.batchRecords();
    std::uint64_t total = 0;
    for (const RunSpan &m : members)
        total += m.length;
    // Batch-aligned sampling: pivots land on batch heads of their own
    // run, and every probe is a 1-record readAt.
    std::uint64_t stride = std::max<std::uint64_t>(
        batch, total / (std::uint64_t(slices) * 32));
    stride = ((stride + batch - 1) / batch) * batch;
    std::vector<Sample> samples;
    for (std::size_t j = 0; j < members.size(); ++j) {
        for (std::uint64_t pos = 0; pos < members[j].length;
             pos += stride) {
            Sample s;
            src.readAt(members[j].offset + pos, &s.rec, 1,
                       "final-pass splitter sample probe");
            s.j = j;
            s.pos = pos;
            samples.push_back(s);
        }
    }
    std::sort(samples.begin(), samples.end(),
              [](const Sample &a, const Sample &b) {
                  if (a.rec < b.rec)
                      return true;
                  if (b.rec < a.rec)
                      return false;
                  if (a.j != b.j)
                      return a.j < b.j;
                  return a.pos < b.pos;
              });
    std::vector<std::vector<std::uint64_t>> cuts(
        slices + 1, std::vector<std::uint64_t>(members.size(), 0));
    for (std::size_t j = 0; j < members.size(); ++j)
        cuts[slices][j] = members[j].length;
    io::PoolLease<RecordT> win(bufs);
    for (unsigned t = 1; t < slices; ++t) {
        const Sample &pivot = samples[samples.size() * t / slices];
        for (std::size_t j = 0; j < members.size(); ++j) {
            if (j == pivot.j)
                cuts[t][j] = pivot.pos;
            else
                cuts[t][j] = storedRunBoundary(
                    src, members[j], pivot.rec, j < pivot.j,
                    win.data(), win.capacity());
        }
    }
    return cuts;
}

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_SPLITTER_HPP
