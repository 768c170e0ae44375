/**
 * @file
 * Positioned byte-level file I/O for the streaming storage layer.
 *
 * A ByteFile wraps one file descriptor and exposes pread/pwrite-style
 * positioned transfers, so concurrent readers and writers (merge
 * tasks reading runs and writing their output runs) can share one
 * file without seek races.  Spill files are created unlinked: the
 * space is reclaimed by the kernel the moment the store is destroyed,
 * even on a crash.
 *
 * Real devices fail: transfers come back short, syscalls are
 * interrupted, and the media throws transient EIO under load.  Every
 * transfer therefore runs through a bounded retry loop (immediate
 * retry for EINTR and short transfers, exponential backoff for the
 * transient errno set), and a FaultPolicy hook lets tests inject those
 * failures deterministically at the exact syscall boundary the kernel
 * would produce them.
 *
 * This is the only part of the io layer that talks to the OS; record
 * typed streams (io/stream.hpp) and the run store (io/run_store.hpp)
 * are header-only templates layered on top.
 */

#ifndef BONSAI_IO_BYTE_IO_HPP
#define BONSAI_IO_BYTE_IO_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace bonsai::io
{

/** One I/O attempt about to be issued by a ByteFile. */
struct FaultOp {
    enum class Kind { Read, Write, Sync };
    Kind kind = Kind::Read;
    std::uint64_t offset = 0; ///< absolute byte offset of this attempt
    std::uint64_t bytes = 0;  ///< bytes this attempt wants to transfer
};

/** What a FaultPolicy does to one attempt. */
struct FaultAction {
    /** Cap the transfer at this many bytes (simulates a short I/O). */
    std::uint64_t maxBytes = ~std::uint64_t{0};
    /** Nonzero: skip the syscall and fail with this errno instead. */
    int failWith = 0;
};

/**
 * Injection seam, consulted once per syscall attempt (including each
 * retry, so a policy can model an error that heals after N tries).
 * Implementations must be thread-safe: concurrent merge tasks and
 * phase-1 stages issue attempts concurrently.
 */
class FaultPolicy
{
  public:
    virtual ~FaultPolicy() = default;
    virtual FaultAction onAttempt(const FaultOp &op) = 0;
};

/** Bounded-retry schedule for transient errors (EIO, EAGAIN). */
struct RetryPolicy {
    /** Failed attempts tolerated per transfer before giving up. */
    unsigned maxAttempts = 4;
    /** First backoff sleep; doubles per consecutive failure. */
    unsigned backoffBaseMicros = 200;
    /** Consecutive EINTRs tolerated before the transfer is abandoned. */
    unsigned eintrLimit = 1024;
};

/** Snapshot of a file's retry counters (relaxed; telemetry only). */
struct IoRetryStats {
    std::uint64_t transientRetries = 0; ///< EIO/EAGAIN attempts retried
    std::uint64_t eintrRetries = 0;     ///< interrupted syscalls retried
    std::uint64_t shortTransfers = 0;   ///< partial transfers resumed

    IoRetryStats &operator+=(const IoRetryStats &other)
    {
        transientRetries += other.transientRetries;
        eintrRetries += other.eintrRetries;
        shortTransfers += other.shortTransfers;
        return *this;
    }
};

/** Move-only positioned-I/O file handle. */
class ByteFile
{
  public:
    /** Open an existing file for reading. */
    static ByteFile openRead(const std::string &path);

    /** Create (or truncate) a file for writing and reading back. */
    static ByteFile create(const std::string &path);

    /**
     * Open (creating if absent, never truncating) a file for reading
     * and writing.  This is the resume-mode open: a persistent spill
     * file keeps whatever bytes a previous attempt already made
     * durable.
     */
    static ByteFile openReadWrite(const std::string &path);

    /**
     * Create an anonymous spill file in @p dir (empty = $TMPDIR or
     * /tmp).  Trailing slashes in the directory are normalized away;
     * when the $TMPDIR-derived default is unwritable the file falls
     * back to /tmp before giving up.  The name is unlinked immediately
     * after creation, so the storage vanishes with the last handle.
     */
    static ByteFile createTemp(const std::string &dir = "");

    ByteFile(ByteFile &&other) noexcept;
    ByteFile &operator=(ByteFile &&other) noexcept;
    ByteFile(const ByteFile &) = delete;
    ByteFile &operator=(const ByteFile &) = delete;
    ~ByteFile();

    /**
     * Read exactly @p count bytes at @p offset (throws on EOF).
     * @p context, when given, names what was being streamed and is
     * included in the error message along with offset and the bytes
     * still outstanding.
     */
    void readAt(std::uint64_t offset, void *dst, std::uint64_t count,
                const char *context = nullptr) const;

    /** Write exactly @p count bytes at @p offset (extends the file). */
    void writeAt(std::uint64_t offset, const void *src,
                 std::uint64_t count, const char *context = nullptr);

    /**
     * Flush completed writes to the device (fdatasync).  Surfaces
     * write-back errors and delayed-allocation ENOSPC inside the sort
     * call instead of after process exit.
     */
    void sync(const char *context = nullptr);

    /** Current file size in bytes. */
    std::uint64_t sizeBytes() const;

    /** The path the file was opened with ("" for unlinked spills). */
    const std::string &path() const { return path_; }

    /** Install the fault-injection hook (nullptr = no injection). */
    void setFaultPolicy(std::shared_ptr<FaultPolicy> policy)
    {
        policy_ = std::move(policy);
    }

    /** Replace the transient-error retry schedule. */
    void setRetryPolicy(const RetryPolicy &policy) { retry_ = policy; }

    /** Cumulative retry counters since the file was opened. */
    IoRetryStats retryStats() const;

  private:
    /** Retry counters; heap-held so the handle stays move-only. */
    struct Counters {
        std::atomic<std::uint64_t> transient{0};
        std::atomic<std::uint64_t> eintr{0};
        std::atomic<std::uint64_t> shortTransfers{0};
    };

    ByteFile(int fd, std::string path)
        : fd_(fd), path_(std::move(path)),
          counters_(std::make_unique<Counters>())
    {
    }

    FaultAction consultPolicy(const FaultOp &op) const;

    int fd_ = -1;
    std::string path_;
    std::shared_ptr<FaultPolicy> policy_;
    RetryPolicy retry_;
    std::unique_ptr<Counters> counters_;
};

/**
 * fsync a directory so that entries created, renamed or unlinked in
 * it survive a crash.  POSIX only guarantees a new (or renamed) name
 * is durable once its *parent directory* has been synced; fdatasync
 * on the file alone leaves the name itself volatile.
 */
void syncDirectory(const std::string &dir);

/**
 * syncDirectory() on the parent of @p path.  A path without a slash
 * syncs the current directory.  No-op for an empty path (unlinked
 * spill files have no name to make durable).
 */
void syncParentDirectory(const std::string &path);

/** mkdir -p: create @p dir and any missing ancestors (mode 0755). */
void createDirectories(const std::string &dir);

/** True when @p path names an existing filesystem entry. */
bool fileExists(const std::string &path);

/**
 * Unlink @p path if it exists; returns true when a file was removed.
 * Missing files are not an error (idempotent cleanup).
 */
bool removeFileIfExists(const std::string &path);

/**
 * Atomically rename @p from onto @p to (replacing it), then fsync the
 * destination's parent directory so the new name is durable.  This is
 * the commit step of the write-temp / fdatasync / rename protocol.
 */
void renameReplace(const std::string &from, const std::string &to);

} // namespace bonsai::io

#endif // BONSAI_IO_BYTE_IO_HPP
