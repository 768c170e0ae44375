/**
 * @file
 * Data loader: feeds the AMT's leaf input buffers from off-chip memory
 * (paper Section V-A).
 *
 * Behaviour reproduced from the paper:
 *  - each leaf has a FIFO input buffer holding two full read batches;
 *  - the loader scans leaves round-robin; whenever a buffer has room
 *    for a batch it issues a batched (1-4 KB) sequential read, keeping
 *    a per-leaf pointer to the last loaded address;
 *  - reads are timed by the MemoryTiming model, so the tree stalls if
 *    a buffer runs empty and DRAM runs at peak bandwidth otherwise;
 *  - the zero-append role is performed inline: a terminal record is
 *    pushed after every run (Section V-B);
 *  - during the first merge stage the loader can presort fixed-size
 *    chunks with a bitonic network (the presorter of Section VI-C1),
 *    turning unsorted input into 16-record runs on the fly.
 */

#ifndef BONSAI_HW_DATA_LOADER_HPP
#define BONSAI_HW_DATA_LOADER_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "hw/bitonic.hpp"
#include "mem/timing.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"

namespace bonsai::hw
{

template <typename RecordT>
class DataLoader : public sim::Component
{
  public:
    /** Per-leaf delivery bus width (the 512-bit FIFO + unpacker path
     *  of Figure 7); caps how many records can land in a buffer per
     *  cycle. */
    static constexpr std::uint64_t kBusBytesPerCycle = 64;

    /** Per-leaf feed description. */
    struct LeafFeed
    {
        sim::Fifo<RecordT> *buffer = nullptr;
        /** Runs this leaf must deliver, in group order; empty runs
         *  (length 0) emit a bare terminal. */
        std::vector<RunSpan> runs;
    };

    /**
     * @param source Stage input buffer (read-only during the stage).
     * @param feeds One entry per leaf; all leaves must have the same
     *              number of runs (pad with empty runs).
     * @param batch_records Read batch size in records (b / r).
     * @param presort_chunk If nonzero, each delivered run is bitonic-
     *              sorted in chunks of this many records (stage one
     *              with the presorter; run length must equal the chunk
     *              size or be the final shorter chunk).
     * @param base_addr Byte address of the source buffer in the memory
     *              model's address space (for bank interleaving).
     * @param record_bytes Modeled record width r.
     */
    DataLoader(std::string name, std::span<const RecordT> source,
               std::vector<LeafFeed> feeds, mem::MemoryTiming &memory,
               std::uint64_t batch_records, std::uint64_t presort_chunk,
               std::uint64_t base_addr, std::uint64_t record_bytes)
        : Component(std::move(name)), source_(source),
          memory_(memory), batchRecords_(batch_records),
          presortChunk_(presort_chunk), baseAddr_(base_addr),
          recordBytes_(record_bytes),
          busRecordsPerCycle_(std::max<std::uint64_t>(
              kBusBytesPerCycle / record_bytes, 1))
    {
        BONSAI_REQUIRE(batch_records > 0,
                       "read batch must cover at least one record");
        // The presorter network sorts chunks as they stream by; a
        // chunk split across batches would be silently mis-sorted.
        BONSAI_REQUIRE(presort_chunk == 0 ||
                           presort_chunk <= batch_records,
                       "presort chunk must fit within one batch");
        BONSAI_REQUIRE(presort_chunk == 0 ||
                           batch_records % presort_chunk == 0,
                       "batches must hold whole presort chunks");
        leaves_.reserve(feeds.size());
        for (LeafFeed &feed : feeds) {
            BONSAI_REQUIRE(feed.buffer != nullptr,
                           "every leaf feed needs a buffer");
            // canIssue() waits for 2*batch+2 free records; a smaller
            // buffer would never accept a batch and deadlock the tree.
            BONSAI_REQUIRE(feed.buffer->capacity() >=
                               2 * batch_records + 2,
                           "leaf buffer must hold two batches plus "
                           "terminals");
            leaves_.push_back(LeafState{std::move(feed), {}, 0, 0, 0,
                                        mem::MemoryTiming::kInvalidTicket});
        }
    }

    void
    tick(sim::Cycle) override
    {
        deliverCompleted();
        issueOne();
    }

    bool
    quiescent() const override
    {
        for (const LeafState &leaf : leaves_) {
            if (!leafDone(leaf))
                return false;
        }
        return true;
    }

    /** All assigned data issued, delivered and pushed. */
    bool
    finished() const
    {
        return quiescent();
    }

    /**
     * Wake hint: active when any leaf can deliver a completed batch,
     * push staged records, or issue a new read.  A leaf whose batch is
     * still in flight contributes the memory model's completion bound
     * for its ticket; a leaf waiting on buffer space (or done) wakes
     * only through external traffic.
     */
    sim::Cycle
    nextWake(sim::Cycle now) const override
    {
        sim::Cycle wake = sim::kNeverWake;
        for (const LeafState &leaf : leaves_) {
            if (leaf.pending != mem::MemoryTiming::kInvalidTicket) {
                if (memory_.complete(leaf.pending))
                    return now;
                wake = std::min(
                    wake, memory_.completionCycle(leaf.pending));
                continue;
            }
            if (leaf.stagedPos < leaf.staged.size()) {
                if (!leaf.feed.buffer->full())
                    return now;
                continue; // waiting on downstream pops
            }
            if (canIssue(leaf))
                return now;
        }
        return wake <= now ? now : wake;
    }

    std::uint64_t batchesIssued() const { return batchesIssued_; }

  private:
    struct LeafState
    {
        LeafFeed feed;
        std::vector<RecordT> staged; ///< records awaiting FIFO space
        std::size_t runIdx = 0;      ///< next run to read from
        std::uint64_t runPos = 0;    ///< records already read of it
        std::uint64_t stagedPos = 0; ///< next staged record to push
        mem::MemoryTiming::Ticket pending =
            mem::MemoryTiming::kInvalidTicket;
    };

    bool
    leafDone(const LeafState &leaf) const
    {
        return leaf.runIdx >= leaf.feed.runs.size() &&
            leaf.pending == mem::MemoryTiming::kInvalidTicket &&
            leaf.stagedPos >= leaf.staged.size();
    }

    /** Move completed batches into leaf FIFOs (as space allows). */
    void
    deliverCompleted()
    {
        for (LeafState &leaf : leaves_) {
            if (leaf.pending != mem::MemoryTiming::kInvalidTicket &&
                memory_.complete(leaf.pending)) {
                leaf.pending = mem::MemoryTiming::kInvalidTicket;
            }
            if (leaf.pending != mem::MemoryTiming::kInvalidTicket)
                continue;
            // The unpacker extracts at most one 512-bit word's worth
            // of records per cycle into each leaf buffer (Figure 7).
            std::uint64_t quota = busRecordsPerCycle_;
            while (quota > 0 && leaf.stagedPos < leaf.staged.size() &&
                   !leaf.feed.buffer->full()) {
                leaf.feed.buffer->push(leaf.staged[leaf.stagedPos]);
                ++leaf.stagedPos;
                --quota;
            }
            if (leaf.stagedPos >= leaf.staged.size()) {
                leaf.staged.clear();
                leaf.stagedPos = 0;
            }
        }
    }

    /** Round-robin scan; issue at most one batched read per cycle. */
    void
    issueOne()
    {
        const std::size_t n = leaves_.size();
        for (std::size_t scan = 0; scan < n; ++scan) {
            LeafState &leaf = leaves_[(cursor_ + scan) % n];
            if (!canIssue(leaf))
                continue;
            issueBatch(leaf);
            cursor_ = (cursor_ + scan + 1) % n;
            return;
        }
    }

    bool
    canIssue(const LeafState &leaf) const
    {
        if (leaf.pending != mem::MemoryTiming::kInvalidTicket)
            return false;
        if (!leaf.staged.empty())
            return false; // previous batch not fully pushed yet
        if (leaf.runIdx >= leaf.feed.runs.size())
            return false;
        // Buffer holds two batches; issue when one batch fits.  A batch
        // of b records can carry up to b terminals in the worst case
        // (single-record runs), hence the 2x headroom.
        return leaf.feed.buffer->freeSpace() >= 2 * batchRecords_ + 2;
    }

    void
    issueBatch(LeafState &leaf)
    {
        std::uint64_t budget = batchRecords_;
        const std::uint64_t start_offset =
            leaf.feed.runs[leaf.runIdx].offset + leaf.runPos;
        while (budget > 0 && leaf.runIdx < leaf.feed.runs.size()) {
            const RunSpan &run = leaf.feed.runs[leaf.runIdx];
            const std::uint64_t left = run.length - leaf.runPos;
            const std::uint64_t take = std::min(budget, left);
            stageRun(leaf, run.offset + leaf.runPos, take);
            leaf.runPos += take;
            budget -= take;
            if (leaf.runPos == run.length) {
                leaf.staged.push_back(RecordT::terminal());
                ++leaf.runIdx;
                leaf.runPos = 0;
                // Batched reads are sequential within a leaf region;
                // runs of one leaf are contiguous, so keep filling the
                // batch from the next run.
            }
        }
        const std::uint64_t took = batchRecords_ - budget;
        if (took == 0) {
            // Only empty runs were consumed; no memory traffic.
            return;
        }
        leaf.pending = memory_.requestRead(
            baseAddr_ + start_offset * recordBytes_, took * recordBytes_);
        ++batchesIssued_;
    }

    /** Copy @p count records starting at @p offset into the staging
     *  buffer, presorting chunks when configured. */
    void
    stageRun(LeafState &leaf, std::uint64_t offset, std::uint64_t count)
    {
        const std::size_t begin = leaf.staged.size();
        for (std::uint64_t i = 0; i < count; ++i)
            leaf.staged.push_back(source_[offset + i]);
        if (presortChunk_ == 0)
            return;
        // The presorter network sorts each chunk as it streams by.
        for (std::size_t pos = begin; pos < leaf.staged.size();
             pos += presortChunk_) {
            const std::size_t len =
                std::min<std::size_t>(presortChunk_,
                                      leaf.staged.size() - pos);
            std::span<RecordT> chunk(leaf.staged.data() + pos, len);
            if (isPow2(len)) {
                bitonicSortNetwork(chunk);
            } else {
                std::sort(chunk.begin(), chunk.end());
            }
        }
    }

    std::span<const RecordT> source_;
    mem::MemoryTiming &memory_;
    const std::uint64_t batchRecords_;
    const std::uint64_t presortChunk_;
    const std::uint64_t baseAddr_;
    const std::uint64_t recordBytes_;
    const std::uint64_t busRecordsPerCycle_;

    std::vector<LeafState> leaves_;
    std::size_t cursor_ = 0;
    std::uint64_t batchesIssued_ = 0;
};

} // namespace bonsai::hw

#endif // BONSAI_HW_DATA_LOADER_HPP
