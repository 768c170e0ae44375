/**
 * @file
 * Unified telemetry of a streamed (or adapted in-memory) sort, shared
 * by SortReport and SsdReport so benches compare backends uniformly.
 *
 * Extracted from the stream-engine monolith; see sorter/external.hpp
 * for the engine facade and docs/ARCHITECTURE.md for the module map
 * of the decomposed streaming layer.
 */

#ifndef BONSAI_SORTER_STREAM_STATS_HPP
#define BONSAI_SORTER_STREAM_STATS_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bonsai::sorter
{

struct StreamStats
{
    std::uint64_t recordsIn = 0;
    std::uint64_t recordsMoved = 0;       ///< total, both phases
    std::uint64_t phase1RecordsMoved = 0; ///< in-chunk sort moves only
    std::uint64_t phase1Chunks = 0;
    std::uint64_t spillBytesWritten = 0; ///< run-store write traffic
    std::uint64_t spillBytesRead = 0;    ///< run-store read traffic
    unsigned mergePasses = 0;  ///< phase-2 storage round trips
    unsigned effectiveEll = 0; ///< fan-in after the buffer budget cap
    /** Phase-2 merge lanes the budget admits: groups merged
     *  concurrently in non-final passes (1 = serial fallback). */
    unsigned concurrentGroups = 0;
    /** Splitter slices the final pass actually merged with (1 =
     *  serial merge). */
    unsigned finalSlices = 0;
    std::uint64_t batchRecords = 0;    ///< pool slot size b
    /** Records per read and write of each merge pass this attempt
     *  ran, in pass order: k * b, with k the pass's slots per lease
     *  (sorter/merge_plan.hpp transferSlots). */
    std::vector<std::uint64_t> passTransferRecords;
    /** The planner's Equation-10 batch: the b that the modeled FPGA's
     *  on-chip buffers allow (SsdSorter::sortStream only; 0
     *  elsewhere).  The host streams at batchRecords instead. */
    std::uint64_t modelBatchRecords = 0;
    std::uint64_t bufferPoolBytes = 0; ///< bounded pool budget
    /** High-water pool usage (streamed path only; 0 for the
     *  zero-copy in-memory adapter, which holds no pool buffers). */
    std::uint64_t bufferPoolPeakBytes = 0;
    double phase1Seconds = 0.0;
    double phase2Seconds = 0.0;
    /** Stall seconds are summed across all phase-2 merge tasks (per-
     *  task accounting), so with several lanes they may exceed the
     *  phase wall clock.  Phase 2 counts the time spent inside its
     *  run-store reads and its store/sink writes; phase 1 adds the
     *  time spent inside its spill writes to writeStallSeconds. */
    double readStallSeconds = 0.0;
    double writeStallSeconds = 0.0;
    /** Spill-store I/O hardening counters (front + back stores; the
     *  output sink's retries are not counted). */
    std::uint64_t ioTransientRetries = 0; ///< EIO/EAGAIN retried
    std::uint64_t ioEintrRetries = 0;     ///< interrupted, retried
    std::uint64_t ioShortTransfers = 0;   ///< partial, resumed
    /** Write-behind kicks (io/byte_io.hpp) and the seconds spent in
     *  them, over both spill stores and the output sink. */
    std::uint64_t ioWriteBackKicks = 0;
    double ioWriteBackSeconds = 0.0;
    /** Errors suppressed behind the first (propagated) one. */
    std::uint64_t secondaryErrors = 0;
    /** Crash-consistency telemetry (checkpointed sorts only; all
     *  zero / empty when the sort ran without a job directory). */
    std::uint64_t resumedChunks = 0;  ///< phase-1 chunks not redone
    std::uint64_t resumedPasses = 0;  ///< merge passes not redone
    std::uint64_t manifestCommits = 0; ///< durable journal commits
    /** Why a requested resume fell back to a fresh start ("" = it
     *  did not: either a clean resume or a fresh job). */
    std::string resumeFallback;

    friend bool operator==(const StreamStats &,
                           const StreamStats &) = default;
};

/** Run @p io and add the seconds it took to @p acc — the phase-2
 *  stall accounting around one store read or sink write. */
template <typename F>
void
addSeconds(double &acc, F &&io)
{
    const auto start = std::chrono::steady_clock::now();
    io();
    acc += std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
               .count();
}

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_STREAM_STATS_HPP
