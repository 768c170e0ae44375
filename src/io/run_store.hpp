/**
 * @file
 * Run store: the storage tier the two-phase sorter spills sorted runs
 * to and merges them back from.
 *
 * A RunStore is a flat, positioned record space plus the metadata of
 * the sorted runs currently living in it (RunSpan offsets are record
 * indices into the store).  The engine ping-pongs two stores through
 * phase 2, each merge pass reading runs from one and writing the
 * merged output runs to the other — every pass is one full "SSD round
 * trip" in the paper's cost model.
 *
 *  - MemoryRunStore keeps records in a DRAM buffer and additionally
 *    exposes the raw span, which lets the engine merge in place with
 *    the Merge Path parallel kernel (zero copies) — this is how the
 *    in-memory sort(std::vector&) facade stays byte- and
 *    performance-identical.
 *  - FileRunStore spills to an anonymous temp file through positioned
 *    I/O that is safe to call concurrently from several merge
 *    tasks, each reading its runs and writing its output run.
 *
 * Byte counters tally actual store traffic (spill bytes), reported
 * through the facades' unified telemetry.
 *
 * Concurrency contract (the lock-free corner of the common/sync.hpp
 * scheme): stores hold no mutex at all.  FileRunStore is safe for
 * concurrent readAt/writeAt on disjoint ranges because pread/pwrite
 * are positioned syscalls sharing no file cursor, MemoryRunStore
 * because disjoint memcpy ranges don't alias; the traffic counters
 * are relaxed atomics (telemetry, not synchronization).  Run
 * *metadata* (runs()/setRuns) is single-writer: only the merge
 * coordinator touches it, never the lane workers — so it needs no
 * guard and carries none.  Anything here that ever grows a mutex
 * must move onto bonsai::Mutex with BONSAI_GUARDED_BY annotations
 * (scripts/check_style.py enforces both halves of that rule).
 */

#ifndef BONSAI_IO_RUN_STORE_HPP
#define BONSAI_IO_RUN_STORE_HPP

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/run.hpp"
#include "io/byte_io.hpp"
#include "io/stream.hpp"

namespace bonsai::io
{

/** Positioned record storage plus the run metadata living in it. */
template <typename RecordT>
class RunStore
{
  public:
    virtual ~RunStore() = default;

    /** Write @p count records at record offset @p offset.
     *  @p context, when given, names what is streaming (run/chunk)
     *  and is woven into any I/O error raised by the transfer. */
    virtual void writeAt(std::uint64_t offset, const RecordT *src,
                         std::uint64_t count,
                         const char *context = nullptr) = 0;

    /** Read @p count records from record offset @p offset.  Must be
     *  safe to call concurrently with writeAt on disjoint ranges. */
    virtual void readAt(std::uint64_t offset, RecordT *dst,
                        std::uint64_t count,
                        const char *context = nullptr) const = 0;

    /** Durability point: flush completed writes to the device so
     *  write-back errors surface here, not after process exit.
     *  Memory-backed stores have nothing to flush. */
    virtual void flush(const char *context = nullptr)
    {
        static_cast<void>(context);
    }

    /** Retry counters of the underlying device (zero for DRAM). */
    virtual IoRetryStats retryStats() const { return {}; }

    /** In-memory stores return their backing buffer so merges can run
     *  zero-copy; storage-backed stores return an empty span. */
    virtual std::span<RecordT>
    memorySpan()
    {
        return {};
    }

    /** Sorted runs currently stored (record offsets into the store). */
    const std::vector<RunSpan> &runs() const { return runs_; }
    void setRuns(std::vector<RunSpan> runs) { runs_ = std::move(runs); }

    std::uint64_t
    bytesWritten() const
    {
        return written_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    bytesRead() const
    {
        return read_.load(std::memory_order_relaxed);
    }

  protected:
    void
    countWrite(std::uint64_t bytes)
    {
        written_.fetch_add(bytes, std::memory_order_relaxed);
    }

    void
    countRead(std::uint64_t bytes) const
    {
        read_.fetch_add(bytes, std::memory_order_relaxed);
    }

  private:
    std::vector<RunSpan> runs_;
    std::atomic<std::uint64_t> written_{0};
    mutable std::atomic<std::uint64_t> read_{0};
};

/** DRAM-backed store over a caller-owned buffer. */
template <typename RecordT>
class MemoryRunStore : public RunStore<RecordT>
{
  public:
    explicit MemoryRunStore(std::span<RecordT> backing)
        : backing_(backing)
    {
    }

    void
    writeAt(std::uint64_t offset, const RecordT *src,
            std::uint64_t count,
            const char * /*context*/ = nullptr) override
    {
        BONSAI_REQUIRE(offset + count <= backing_.size(),
                       "write beyond the memory store's backing");
        std::memcpy(backing_.data() + offset, src,
                    count * sizeof(RecordT));
        this->countWrite(count * sizeof(RecordT));
    }

    void
    readAt(std::uint64_t offset, RecordT *dst, std::uint64_t count,
           const char * /*context*/ = nullptr) const override
    {
        BONSAI_REQUIRE(offset + count <= backing_.size(),
                       "read beyond the memory store's backing");
        std::memcpy(dst, backing_.data() + offset,
                    count * sizeof(RecordT));
        this->countRead(count * sizeof(RecordT));
    }

    std::span<RecordT> memorySpan() override { return backing_; }

  private:
    std::span<RecordT> backing_;
};

/** SSD-backed store spilling to an anonymous temp file. */
template <typename RecordT>
class FileRunStore : public RunStore<RecordT>
{
    static_assert(std::is_trivially_copyable_v<RecordT>);

  public:
    /** @param dir Spill directory (empty = $TMPDIR or /tmp). */
    explicit FileRunStore(const std::string &dir = "")
        : file_(ByteFile::createTemp(dir))
    {
    }

    void
    writeAt(std::uint64_t offset, const RecordT *src,
            std::uint64_t count,
            const char *context = nullptr) override
    {
        file_.writeAt(offset * sizeof(RecordT), src,
                      count * sizeof(RecordT), context);
        this->countWrite(count * sizeof(RecordT));
    }

    void
    readAt(std::uint64_t offset, RecordT *dst, std::uint64_t count,
           const char *context = nullptr) const override
    {
        file_.readAt(offset * sizeof(RecordT), dst,
                     count * sizeof(RecordT), context);
        this->countRead(count * sizeof(RecordT));
    }

    void
    flush(const char *context = nullptr) override
    {
        file_.sync(context);
    }

    IoRetryStats retryStats() const override
    {
        return file_.retryStats();
    }

    /** Inject faults into the spill file (tests; nullptr = off). */
    void
    setFaultPolicy(std::shared_ptr<FaultPolicy> policy)
    {
        file_.setFaultPolicy(std::move(policy));
    }

    /** Replace the spill file's transient-error retry schedule. */
    void
    setRetryPolicy(const RetryPolicy &policy)
    {
        file_.setRetryPolicy(policy);
    }

  private:
    ByteFile file_;
};

/**
 * SSD-backed store over a *named* spill file that survives the
 * process: the checkpointed sort's store.  Where FileRunStore unlinks
 * its name at birth (storage dies with the descriptor), a
 * PersistentRunStore keeps the name under a job directory so a
 * resumed attempt can reopen the same bytes.  Fresh mode creates or
 * truncates; resume mode opens without truncation, preserving
 * whatever a previous attempt already made durable.
 *
 * Same lock-free contract as FileRunStore: positioned pread/pwrite on
 * disjoint ranges, relaxed traffic counters, single-writer metadata.
 */
template <typename RecordT>
class PersistentRunStore : public RunStore<RecordT>
{
    static_assert(std::is_trivially_copyable_v<RecordT>);

  public:
    /** @param path   Spill file path (inside the job directory).
     *  @param resume Keep existing bytes (true) or start empty. */
    explicit PersistentRunStore(const std::string &path,
                                bool resume = false)
        : file_(resume ? ByteFile::openReadWrite(path)
                       : ByteFile::create(path))
    {
    }

    void
    writeAt(std::uint64_t offset, const RecordT *src,
            std::uint64_t count,
            const char *context = nullptr) override
    {
        file_.writeAt(offset * sizeof(RecordT), src,
                      count * sizeof(RecordT), context);
        this->countWrite(count * sizeof(RecordT));
    }

    void
    readAt(std::uint64_t offset, RecordT *dst, std::uint64_t count,
           const char *context = nullptr) const override
    {
        file_.readAt(offset * sizeof(RecordT), dst,
                     count * sizeof(RecordT), context);
        this->countRead(count * sizeof(RecordT));
    }

    void
    flush(const char *context = nullptr) override
    {
        file_.sync(context);
    }

    IoRetryStats retryStats() const override
    {
        return file_.retryStats();
    }

    const std::string &path() const { return file_.path(); }

    /** Current spill file size in bytes (resume-validation input). */
    std::uint64_t sizeBytes() const { return file_.sizeBytes(); }

    /** Inject faults into the spill file (tests; nullptr = off). */
    void
    setFaultPolicy(std::shared_ptr<FaultPolicy> policy)
    {
        file_.setFaultPolicy(std::move(policy));
    }

    /** Replace the spill file's transient-error retry schedule. */
    void
    setRetryPolicy(const RetryPolicy &policy)
    {
        file_.setRetryPolicy(policy);
    }

  private:
    ByteFile file_;
};

/** Sink adapter writing sequentially into a store at a base offset —
 *  lets the merge writer target a store and the final-output sink
 *  through one interface.  Stores are positioned by nature, so the
 *  segment extension is supported too (concurrent disjoint writes are
 *  part of the RunStore contract). */
template <typename RecordT>
class RunStoreSink : public RecordSink<RecordT>
{
  public:
    /** @param context Optional label woven into I/O errors raised by
     *  writes through this sink (must outlive the sink). */
    RunStoreSink(RunStore<RecordT> &store, std::uint64_t base_offset,
                 const char *context = nullptr)
        : store_(&store), pos_(base_offset), context_(context)
    {
    }

    void
    write(const RecordT *src, std::uint64_t count) override
    {
        store_->writeAt(pos_, src, count, context_);
        pos_ += count;
    }

    bool supportsSegments() const override { return true; }

    void
    beginSegments(std::uint64_t total) override
    {
        base_ = pos_;
        pos_ += total;
    }

    void
    writeSegment(std::uint64_t offset, const RecordT *src,
                 std::uint64_t count) override
    {
        store_->writeAt(base_ + offset, src, count, context_);
    }

  private:
    RunStore<RecordT> *store_;
    std::uint64_t pos_;
    std::uint64_t base_ = 0;
    const char *context_ = nullptr;
};

} // namespace bonsai::io

#endif // BONSAI_IO_RUN_STORE_HPP
