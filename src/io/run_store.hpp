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
 * There are two stores:
 *  - MemoryRunStore keeps records in a caller-owned DRAM buffer, for
 *    streamed sorts whose spills fit in memory (tests, benches).
 *  - FileRunStore spills to a file through positioned I/O that is
 *    safe to call concurrently from several merge tasks, each reading
 *    its runs and writing its output run.  The file is an anonymous
 *    temp file by default, or a named one under a checkpointed job's
 *    directory (sorter/checkpoint.hpp) that survives the process.
 *
 * The in-memory sort (StreamEngine::sortInPlace) uses no store: its
 * passes run BehavioralSorter's stage loop over the caller's vector
 * and one scratch buffer.
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
 * coordinator touches it, never the merge tasks — so it needs no
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

    /** In-memory stores return their backing buffer; storage-backed
     *  stores return an empty span.  No sort path calls it; the
     *  end-to-end bench's tracing store decorator forwards it. */
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

/**
 * SSD-backed store over a spill file.  The directory constructor
 * spills to an anonymous temp file whose name is unlinked at birth,
 * so the storage dies with the descriptor.  The ByteFile constructor
 * takes any opened file: the checkpointed sort passes a named file
 * under its job directory, created empty (ByteFile::create) for a
 * fresh attempt or reopened without truncation
 * (ByteFile::openReadWrite) so a resumed attempt reads the bytes a
 * previous one made durable.
 */
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

    /** Spill into @p file (named or anonymous). */
    explicit FileRunStore(ByteFile file) : file_(std::move(file)) {}

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
 *  through one interface. */
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

  private:
    RunStore<RecordT> *store_;
    std::uint64_t pos_;
    const char *context_ = nullptr;
};

} // namespace bonsai::io

#endif // BONSAI_IO_RUN_STORE_HPP
