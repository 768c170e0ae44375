/**
 * @file
 * Phase 1 of the out-of-core sort: read fixed-size chunks from the
 * RecordSource, sort each in place with the BehavioralSorter on the
 * engine's compute pool, and spill the sorted runs to a RunStore.
 *
 * I/O overlaps compute with two chunk buffers in lockstep (the
 * paper's double-buffered data loader, writ large).  Chunk 0 is read
 * into buffer A; then every step k runs two tasks on a two-thread I/O
 * pool:
 *
 *   task 0:  sort chunk k in A (on the compute pool)
 *   task 1:  spill chunk k-1 from B, journal it, read chunk k+1 into B
 *
 * and A and B swap.  The last chunk is spilled after the loop.  So the
 * spill write-back and the next load overlap the current sort, while
 * resident memory stays at two chunk buffers plus sort scratch (one
 * buffer when a single chunk covers the remaining input).
 *
 * Error contract: each task traps its first failure (a short-read
 * contract, a terminal record in the input, a spill-device error) in
 * the sort-wide ErrorTrap and the step rethrows it after the join —
 * the idiom Phase2Merger uses.  Chunks are spilled in input order, so
 * runs land at the same offsets, in the same order, with the same
 * "phase-1 spill of chunk N" error contexts, and chunk k-1 is
 * journaled before chunk k's spill starts.
 */

#ifndef BONSAI_SORTER_PHASE1_SPILL_HPP
#define BONSAI_SORTER_PHASE1_SPILL_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "io/run_store.hpp"
#include "io/stream.hpp"
#include "sorter/behavioral.hpp"
#include "sorter/checkpoint.hpp"
#include "sorter/stream_stats.hpp"

namespace bonsai::sorter
{

template <typename RecordT>
class Phase1Spiller
{
  public:
    /**
     * Stream chunks of @p chunk records from @p source in reads of at
     * most @p batch records, sort each in place with @p sorter on
     * @p compute, and spill the sorted runs to @p store.  Fills the
     * phase-1 fields of @p stats; the primary error of a failing step
     * lands in @p trap and is rethrown from here once both of the
     * step's tasks have finished.
     *
     * With a @p ckpt the phase resumes: chunks the journal already
     * records are skipped in the source (never re-read, never
     * re-sorted), their runs are adopted, and every newly spilled
     * chunk is committed to the journal before the next one spills.
     */
    static void
    run(io::RecordSource<RecordT> &source,
        io::RunStore<RecordT> &store, ThreadPool &compute,
        const BehavioralSorter<RecordT> &sorter, std::uint64_t batch,
        std::uint64_t chunk, StreamStats &stats, ErrorTrap &trap,
        Checkpointer<RecordT> *ckpt = nullptr)
    {
        const auto t1 = std::chrono::steady_clock::now();
        const std::uint64_t total = source.totalRecords();
        const std::uint64_t base_index = ckpt ? ckpt->chunksDone() : 0;
        const std::uint64_t start = base_index * chunk;
        if (start > 0) {
            // Input already spilled by the previous attempt: skip it
            // (O(1) on positioned sources).  A source shorter than
            // the journaled prefix is not the input the checkpoint
            // was taken against — fail in every build type.
            const std::uint64_t skipped = source.skip(start);
            if (skipped != start)
                contracts::fail(
                    "precondition", "source.skip(start) == start",
                    __FILE__, __LINE__,
                    "record source ended after " +
                        std::to_string(skipped) + " of the " +
                        std::to_string(start) +
                        " records the checkpoint already spilled");
        }

        // Adopt the resumed attempt's runs (in chunk order) so the
        // final run list covers the whole input.
        std::vector<RunSpan> runs;
        if (ckpt && ckpt->resumed())
            runs = store.runs();
        std::uint64_t offset = start;
        std::uint64_t index = base_index;
        // Fill @p c with the next chunk (len 0 once the input is
        // exhausted), sizing its buffer on first use.
        const auto load = [&](Chunk &c) {
            c.len = std::min<std::uint64_t>(chunk, total - offset);
            if (c.len == 0)
                return;
            c.buf.resize(chunk);
            c.offset = offset;
            c.index = index++;
            for (std::uint64_t got = 0; got < c.len;) {
                const std::uint64_t r = source.read(
                    c.buf.data() + got,
                    std::min<std::uint64_t>(batch, c.len - got));
                if (r == 0)
                    contracts::fail(
                        "precondition", "source.read() != 0",
                        __FILE__, __LINE__,
                        "record source ended at record " +
                            std::to_string(offset + got) +
                            " but declared " + std::to_string(total));
                io::requireNoTerminals(c.buf.data() + got, r,
                                       offset + got);
                got += r;
            }
            offset += c.len;
        };
        double spill_seconds = 0.0;
        const auto spill = [&](const Chunk &c) {
            const std::string ctx =
                "phase-1 spill of chunk " + std::to_string(c.index);
            addSeconds(spill_seconds, [&] {
                store.writeAt(c.offset, c.buf.data(), c.len,
                              ctx.c_str());
            });
            const RunSpan run{c.offset, c.len};
            runs.push_back(run);
            // Journal the chunk before the next one spills: once
            // committed, a crash anywhere later never redoes it.
            if (ckpt != nullptr)
                ckpt->commitChunk(run);
        };

        Chunk a; // loaded, sorted in the coming step
        Chunk b; // sorted, spilled and then refilled in the coming step
        load(a);
        std::uint64_t moved = 0;
        ThreadPool io(2);
        while (a.len > 0) {
            // parallelFor tasks must not throw (a leaked exception
            // kills a pool worker), so trap the first error and
            // rethrow it after the join.
            io.parallelFor(2, [&](std::uint64_t task) {
                try {
                    if (task == 0) {
                        const std::span<RecordT> run(a.buf.data(),
                                                     a.len);
                        moved += sorter.sort(run, compute).recordsMoved;
                        return;
                    }
                    if (b.len > 0)
                        spill(b);
                    load(b);
                } catch (...) {
                    trap.store(std::current_exception());
                }
            });
            trap.rethrowIfSet();
            std::swap(a, b);
        }
        if (b.len > 0)
            spill(b);

        stats.phase1RecordsMoved += moved;
        stats.recordsMoved += moved;
        stats.writeStallSeconds += spill_seconds;
        // Durability point: a spill the device only buffered is not a
        // spill phase 2 can trust.
        store.flush("phase-1 spill flush");
        stats.phase1Chunks = runs.size();
        store.setRuns(std::move(runs));
        stats.phase1Seconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t1)
                .count();
    }

  private:
    /** One chunk buffer and the chunk it holds (len 0 = none). */
    struct Chunk
    {
        std::vector<RecordT> buf;
        std::uint64_t offset = 0;
        std::uint64_t len = 0;
        std::uint64_t index = 0;
    };
};

} // namespace bonsai::sorter

#endif // BONSAI_SORTER_PHASE1_SPILL_HPP
