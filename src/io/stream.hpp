/**
 * @file
 * Record-typed streaming interfaces: the boundary the sorter facades
 * read input through and write output through.
 *
 * A RecordSource yields records in batches (sequential, forward-only);
 * a RecordSink accepts them the same way.  Memory-backed
 * implementations keep the existing sort(std::vector&) facades working
 * as thin adapters; file-backed implementations let the out-of-core
 * engine (sorter/external.hpp) sort datasets that never fit in DRAM.
 *
 * The stream boundary is also where input data is checked against the
 * paper's reserved all-zero terminal record (Section V-B): a terminal
 * in user data would corrupt merge flushing, so requireNoTerminals()
 * fails loudly — in every build type — instead.
 */

#ifndef BONSAI_IO_STREAM_HPP
#define BONSAI_IO_STREAM_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/contract.hpp"
#include "io/byte_io.hpp"

namespace bonsai::io
{

/**
 * Reject the reserved all-zero terminal record in user data.  Not a
 * compiled-out contract: silently accepting a terminal corrupts merge
 * output far from the cause, so the check runs in release builds too
 * (same policy as MergePath's rank-invariant check).
 */
template <typename RecordT>
void
requireNoTerminals(const RecordT *recs, std::uint64_t count,
                   std::uint64_t base_index = 0)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        if (recs[i].isTerminal())
            contracts::fail(
                "precondition", "!record.isTerminal()", __FILE__,
                __LINE__,
                "input record " + std::to_string(base_index + i) +
                    " is the reserved all-zero terminal record "
                    "(Section V-B) and would corrupt merge flushing");
    }
}

/** Sequential, forward-only record producer. */
template <typename RecordT>
class RecordSource
{
  public:
    virtual ~RecordSource() = default;

    /** Total records this source will yield. */
    virtual std::uint64_t totalRecords() const = 0;

    /** Read up to @p max records into @p dst; 0 means exhausted. */
    virtual std::uint64_t read(RecordT *dst, std::uint64_t max) = 0;

    /**
     * Discard the next @p count records (resume path: input already
     * consumed by a previous attempt is not re-read).  The default
     * reads into a bounded scratch buffer; positioned sources override
     * with an O(1) cursor advance.  Returns the records skipped —
     * fewer than @p count only when the source is exhausted.
     */
    virtual std::uint64_t
    skip(std::uint64_t count)
    {
        constexpr std::uint64_t kScratchRecords = 1024;
        std::vector<RecordT> scratch(
            static_cast<std::size_t>(std::min(count, kScratchRecords)));
        std::uint64_t done = 0;
        while (done < count) {
            const std::uint64_t got =
                read(scratch.data(),
                     std::min<std::uint64_t>(count - done,
                                             scratch.size()));
            if (got == 0)
                break;
            done += got;
        }
        return done;
    }
};

/** Sequential record consumer. */
template <typename RecordT>
class RecordSink
{
  public:
    virtual ~RecordSink() = default;

    /** Append @p count records. */
    virtual void write(const RecordT *src, std::uint64_t count) = 0;

    /** All records delivered; flush any buffered state. */
    virtual void
    finish()
    {
    }

    /**
     * Sinks that can accept positioned (random-access) writes within a
     * pre-declared window return true.  The parallel final merge pass
     * uses this to stitch its splitter slices into the sink: every
     * slice knows its exact output rank range up front, so slices
     * write disjoint segments concurrently and the stored bytes are
     * identical to a sequential write in rank order.
     */
    virtual bool supportsSegments() const { return false; }

    /**
     * Declare a window of @p total records that will arrive through
     * writeSegment() calls at record offsets [0, total) relative to
     * the current sequential position.  Called at most once between
     * sequential writes; every offset is covered exactly once before
     * finish().  Only valid when supportsSegments().
     */
    virtual void
    beginSegments(std::uint64_t total)
    {
        (void)total;
        contracts::fail("precondition", "supportsSegments()", __FILE__,
                        __LINE__,
                        "beginSegments() on a sink without positioned-"
                        "write support");
    }

    /**
     * Write @p count records at window-relative record @p offset.
     * Safe to call concurrently for disjoint ranges.  Only valid
     * after beginSegments().
     */
    virtual void
    writeSegment(std::uint64_t offset, const RecordT *src,
                 std::uint64_t count)
    {
        (void)offset;
        (void)src;
        (void)count;
        contracts::fail("precondition", "supportsSegments()", __FILE__,
                        __LINE__,
                        "writeSegment() on a sink without positioned-"
                        "write support");
    }
};

/**
 * Sequential view of one disjoint segment of a parent sink's declared
 * window: write() forwards to writeSegment() at an advancing offset,
 * so a slice of the final merge writes its batches without knowing
 * about segments.
 */
template <typename RecordT>
class SegmentSink : public RecordSink<RecordT>
{
  public:
    /** @param base Window-relative record offset this segment starts
     *  at (the slice's first global output rank). */
    SegmentSink(RecordSink<RecordT> &parent, std::uint64_t base)
        : parent_(&parent), pos_(base)
    {
    }

    void
    write(const RecordT *src, std::uint64_t count) override
    {
        parent_->writeSegment(pos_, src, count);
        pos_ += count;
    }

  private:
    RecordSink<RecordT> *parent_;
    std::uint64_t pos_;
};

/** Source over an in-memory buffer (non-owning). */
template <typename RecordT>
class MemorySource : public RecordSource<RecordT>
{
  public:
    explicit MemorySource(std::span<const RecordT> data) : data_(data) {}

    std::uint64_t totalRecords() const override { return data_.size(); }

    std::uint64_t
    read(RecordT *dst, std::uint64_t max) override
    {
        const std::uint64_t n =
            std::min<std::uint64_t>(max, data_.size() - pos_);
        std::copy_n(data_.data() + pos_, n, dst);
        pos_ += n;
        return n;
    }

    std::uint64_t
    skip(std::uint64_t count) override
    {
        const std::uint64_t n =
            std::min<std::uint64_t>(count, data_.size() - pos_);
        pos_ += n;
        return n;
    }

  private:
    std::span<const RecordT> data_;
    std::uint64_t pos_ = 0;
};

/** Sink appending into a caller-owned vector. */
template <typename RecordT>
class MemorySink : public RecordSink<RecordT>
{
  public:
    explicit MemorySink(std::vector<RecordT> &out) : out_(&out) {}

    void
    write(const RecordT *src, std::uint64_t count) override
    {
        out_->insert(out_->end(), src, src + count);
    }

    bool supportsSegments() const override { return true; }

    void
    beginSegments(std::uint64_t total) override
    {
        base_ = out_->size();
        out_->resize(base_ + total);
    }

    void
    writeSegment(std::uint64_t offset, const RecordT *src,
                 std::uint64_t count) override
    {
        BONSAI_REQUIRE(base_ + offset + count <= out_->size(),
                       "segment write beyond the declared window");
        std::copy_n(src, count,
                    out_->begin() +
                        static_cast<std::ptrdiff_t>(base_ + offset));
    }

  private:
    std::vector<RecordT> *out_;
    std::uint64_t base_ = 0;
};

/** Source over a raw record file (fixed-width binary records). */
template <typename RecordT>
class FileSource : public RecordSource<RecordT>
{
    static_assert(std::is_trivially_copyable_v<RecordT>);

  public:
    /** Takes ownership of @p file; its size must be a whole number of
     *  records — a torn tail means the file is not what the caller
     *  thinks it is, so this fails loudly in every build type. */
    explicit FileSource(ByteFile file) : file_(std::move(file))
    {
        const std::uint64_t bytes = file_.sizeBytes();
        if (bytes % sizeof(RecordT) != 0)
            contracts::fail(
                "precondition", "sizeBytes() % sizeof(RecordT) == 0",
                __FILE__, __LINE__,
                "record file size (" + std::to_string(bytes) +
                    " bytes) is not a multiple of the record width (" +
                    std::to_string(sizeof(RecordT)) + " bytes)");
        total_ = bytes / sizeof(RecordT);
    }

    std::uint64_t totalRecords() const override { return total_; }

    std::uint64_t
    read(RecordT *dst, std::uint64_t max) override
    {
        const std::uint64_t n =
            std::min<std::uint64_t>(max, total_ - pos_);
        if (n > 0)
            file_.readAt(pos_ * sizeof(RecordT), dst,
                         n * sizeof(RecordT),
                         "sequential input scan");
        pos_ += n;
        return n;
    }

    std::uint64_t
    skip(std::uint64_t count) override
    {
        const std::uint64_t n =
            std::min<std::uint64_t>(count, total_ - pos_);
        pos_ += n;
        return n;
    }

  private:
    ByteFile file_;
    std::uint64_t total_ = 0;
    std::uint64_t pos_ = 0;
};

/** Sink writing raw records to a file sequentially. */
template <typename RecordT>
class FileSink : public RecordSink<RecordT>
{
    static_assert(std::is_trivially_copyable_v<RecordT>);

  public:
    /** Takes ownership of @p file (created/truncated by the caller). */
    explicit FileSink(ByteFile file) : file_(std::move(file)) {}

    void
    write(const RecordT *src, std::uint64_t count) override
    {
        file_.writeAt(pos_ * sizeof(RecordT), src,
                      count * sizeof(RecordT),
                      "sequential output write");
        pos_ += count;
    }

    bool supportsSegments() const override { return true; }

    void
    beginSegments(std::uint64_t total) override
    {
        base_ = pos_;
        pos_ += total; // the window is committed up front
    }

    void
    writeSegment(std::uint64_t offset, const RecordT *src,
                 std::uint64_t count) override
    {
        // Positioned pwrite: concurrent calls on disjoint ranges are
        // safe, which is what lets final-merge slices drain in
        // parallel.
        file_.writeAt((base_ + offset) * sizeof(RecordT), src,
                      count * sizeof(RecordT),
                      "final-pass segment write");
    }

    /** Durability point: fdatasync the finished output, then fsync
     *  its parent directory — a freshly created name is only durable
     *  once the directory entry itself is on the device.  Surfaces
     *  write-back errors and delayed-allocation ENOSPC inside the
     *  sort call rather than after process exit. */
    void
    finish() override
    {
        file_.sync("finishing output sink");
        syncParentDirectory(file_.path());
    }

    std::uint64_t recordsWritten() const { return pos_; }

    /** Inject faults into the output file (tests; nullptr = off). */
    void
    setFaultPolicy(std::shared_ptr<FaultPolicy> policy)
    {
        file_.setFaultPolicy(std::move(policy));
    }

    /** Replace the output file's transient-error retry schedule. */
    void
    setRetryPolicy(const RetryPolicy &policy)
    {
        file_.setRetryPolicy(policy);
    }

  private:
    ByteFile file_;
    std::uint64_t pos_ = 0;
    std::uint64_t base_ = 0;
};

} // namespace bonsai::io

#endif // BONSAI_IO_STREAM_HPP
