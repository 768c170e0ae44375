#include "io/byte_io.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

namespace bonsai::io
{

namespace
{

std::string
errnoMessage(int err)
{
    return std::error_code(err, std::generic_category()).message();
}

[[noreturn]] void
throwErrno(const std::string &what, const std::string &path)
{
    throw std::runtime_error("bonsai io: " + what + " (" + path +
                             "): " + errnoMessage(errno));
}

/**
 * Transfer-level error with everything a post-mortem needs: which
 * file, the offset the transfer stalled at, how much of the request
 * was still outstanding, and the caller-supplied context naming the
 * run/chunk that was streaming.  @p err == 0 suppresses the errno
 * suffix (used for EOF, which is not a syscall failure).
 */
[[noreturn]] void
throwIoError(const std::string &what, const std::string &path,
             std::uint64_t offset, std::uint64_t remaining,
             std::uint64_t total, const char *context, int err)
{
    std::string msg = "bonsai io: ";
    msg += what;
    msg += " (";
    msg += path.empty() ? "unlinked spill" : path;
    msg += ", offset ";
    msg += std::to_string(offset);
    if (total > 0) {
        msg += ", ";
        msg += std::to_string(remaining);
        msg += " of ";
        msg += std::to_string(total);
        msg += " bytes outstanding";
    }
    if (context != nullptr && *context != '\0') {
        msg += ", while ";
        msg += context;
    }
    msg += ")";
    if (err != 0) {
        msg += ": ";
        msg += errnoMessage(err);
    }
    throw std::runtime_error(msg);
}

/**
 * The transient set is retried with backoff: EIO covers media hiccups
 * that heal on retry, EAGAIN covers descriptors that momentarily
 * cannot accept the transfer.  ENOSPC, EBADF etc. are permanent and
 * fail the transfer immediately.
 */
bool
transientErrno(int err)
{
    if (err == EIO || err == EAGAIN)
        return true;
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    if (err == EWOULDBLOCK)
        return true;
#endif
    return false;
}

/** Exponential backoff: base << (failures-1), capped at 100 ms. */
void
backoffSleep(unsigned failures, unsigned baseMicros)
{
    constexpr std::uint64_t kMaxBackoffMicros = 100'000;
    const unsigned shift = std::min(failures - 1, 16u);
    const std::uint64_t micros = std::min<std::uint64_t>(
        std::uint64_t{baseMicros} << shift, kMaxBackoffMicros);
    timespec ts = {};
    ts.tv_sec = static_cast<time_t>(micros / 1'000'000);
    ts.tv_nsec = static_cast<long>((micros % 1'000'000) * 1000);
    while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

std::string
stripTrailingSlashes(std::string dir)
{
    while (dir.size() > 1 && dir.back() == '/')
        dir.pop_back();
    return dir;
}

int
tryMkstemp(const std::string &dir, std::string &tmpl)
{
    tmpl = dir + "/bonsai-spill-XXXXXX";
    return ::mkstemp(tmpl.data());
}

} // namespace

ByteFile
ByteFile::openRead(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throwErrno("open for read failed", path);
    return ByteFile(fd, path);
}

ByteFile
ByteFile::create(const std::string &path)
{
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throwErrno("create failed", path);
    return ByteFile(fd, path);
}

ByteFile
ByteFile::openReadWrite(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        throwErrno("open for read/write failed", path);
    return ByteFile(fd, path);
}

ByteFile
ByteFile::createTemp(const std::string &dir)
{
    std::string base = stripTrailingSlashes(dir);
    bool fromEnv = false;
    if (base.empty()) {
        // getenv is only mt-unsafe against a concurrent setenv; the
        // sorter never writes the environment, so reads cannot race.
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env access
        const char *env = std::getenv("TMPDIR");
        base = env && *env ? stripTrailingSlashes(env) : "/tmp";
        fromEnv = true;
    }
    std::string tmpl;
    int fd = tryMkstemp(base, tmpl);
    if (fd < 0 && fromEnv && base != "/tmp") {
        // $TMPDIR is advisory: degrade to /tmp rather than failing
        // the sort because the environment points somewhere stale.
        const int firstErr = errno;
        fd = tryMkstemp("/tmp", tmpl);
        if (fd < 0)
            throw std::runtime_error(
                "bonsai io: cannot create a spill file in $TMPDIR (" +
                base + ": " + errnoMessage(firstErr) +
                ") or /tmp: " + errnoMessage(errno));
    }
    if (fd < 0)
        throw std::runtime_error(
            "bonsai io: spill directory " + base +
            " is unusable (mkstemp " + tmpl +
            "): " + errnoMessage(errno) +
            "; pass a writable spill directory");
    // Unlink immediately: the kernel frees the blocks with the last
    // descriptor, so spills never outlive the process.
    ::unlink(tmpl.c_str());
    return ByteFile(fd, "");
}

ByteFile::ByteFile(ByteFile &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)),
      policy_(std::move(other.policy_)), retry_(other.retry_),
      counters_(std::move(other.counters_))
{
}

ByteFile &
ByteFile::operator=(ByteFile &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = std::exchange(other.fd_, -1);
        path_ = std::move(other.path_);
        policy_ = std::move(other.policy_);
        retry_ = other.retry_;
        counters_ = std::move(other.counters_);
    }
    return *this;
}

ByteFile::~ByteFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

FaultAction
ByteFile::consultPolicy(const FaultOp &op) const
{
    if (!policy_)
        return {};
    return policy_->onAttempt(op);
}

void
ByteFile::readAt(std::uint64_t offset, void *dst, std::uint64_t count,
                 const char *context) const
{
    char *out = static_cast<char *>(dst);
    const std::uint64_t total = count;
    unsigned failures = 0; // consecutive transient failures
    unsigned eintrRun = 0; // consecutive interruptions
    while (count > 0) {
        const FaultAction act =
            consultPolicy({FaultOp::Kind::Read, offset, count});
        const std::uint64_t ask = std::min(
            count, std::max<std::uint64_t>(act.maxBytes, 1));
        ssize_t got = -1;
        if (act.failWith != 0)
            errno = act.failWith;
        else
            got = ::pread(fd_, out, ask, static_cast<off_t>(offset));
        if (got < 0) {
            const int err = errno;
            if (err == EINTR) {
                counters_->eintr.fetch_add(1,
                                           std::memory_order_relaxed);
                if (++eintrRun > retry_.eintrLimit)
                    throwIoError("pread interrupted past the EINTR "
                                 "retry limit",
                                 path_, offset, count, total, context,
                                 err);
                continue;
            }
            if (transientErrno(err) && failures < retry_.maxAttempts) {
                ++failures;
                counters_->transient.fetch_add(
                    1, std::memory_order_relaxed);
                backoffSleep(failures, retry_.backoffBaseMicros);
                continue;
            }
            throwIoError("pread failed", path_, offset, count, total,
                         context, err);
        }
        if (got == 0)
            throwIoError("pread hit end of file", path_, offset, count,
                         total, context, 0);
        failures = 0;
        eintrRun = 0;
        if (static_cast<std::uint64_t>(got) < count)
            counters_->shortTransfers.fetch_add(
                1, std::memory_order_relaxed);
        out += got;
        offset += static_cast<std::uint64_t>(got);
        count -= static_cast<std::uint64_t>(got);
    }
}

void
ByteFile::writeAt(std::uint64_t offset, const void *src,
                  std::uint64_t count, const char *context)
{
    const char *in = static_cast<const char *>(src);
    const std::uint64_t total = count;
    unsigned failures = 0;
    unsigned eintrRun = 0;
    while (count > 0) {
        const FaultAction act =
            consultPolicy({FaultOp::Kind::Write, offset, count});
        const std::uint64_t ask = std::min(
            count, std::max<std::uint64_t>(act.maxBytes, 1));
        ssize_t put = -1;
        if (act.failWith != 0)
            errno = act.failWith;
        else
            put = ::pwrite(fd_, in, ask, static_cast<off_t>(offset));
        if (put < 0) {
            const int err = errno;
            if (err == EINTR) {
                counters_->eintr.fetch_add(1,
                                           std::memory_order_relaxed);
                if (++eintrRun > retry_.eintrLimit)
                    throwIoError("pwrite interrupted past the EINTR "
                                 "retry limit",
                                 path_, offset, count, total, context,
                                 err);
                continue;
            }
            if (transientErrno(err) && failures < retry_.maxAttempts) {
                ++failures;
                counters_->transient.fetch_add(
                    1, std::memory_order_relaxed);
                backoffSleep(failures, retry_.backoffBaseMicros);
                continue;
            }
            throwIoError("pwrite failed", path_, offset, count, total,
                         context, err);
        }
        failures = 0;
        eintrRun = 0;
        if (static_cast<std::uint64_t>(put) < count)
            counters_->shortTransfers.fetch_add(
                1, std::memory_order_relaxed);
        in += put;
        offset += static_cast<std::uint64_t>(put);
        count -= static_cast<std::uint64_t>(put);
    }
    writeBehind(total, context);
}

void
ByteFile::sync(const char *context)
{
    retryWholeFile(FaultOp::Kind::Sync, ::fdatasync, "fdatasync",
                   context);
}

void
ByteFile::retryWholeFile(FaultOp::Kind kind, int (*call)(int),
                         const char *name, const char *context)
{
    unsigned failures = 0;
    unsigned eintrRun = 0;
    for (;;) {
        const FaultAction act = consultPolicy({kind, 0, 0});
        int rc = -1;
        if (act.failWith != 0)
            errno = act.failWith;
        else
            rc = call(fd_);
        if (rc == 0)
            return;
        const int err = errno;
        if (err == EINTR) {
            counters_->eintr.fetch_add(1, std::memory_order_relaxed);
            if (++eintrRun > retry_.eintrLimit)
                throwIoError(std::string(name) +
                                 " interrupted past the EINTR retry limit",
                             path_, 0, 0, 0, context, err);
            continue;
        }
        if (transientErrno(err) && failures < retry_.maxAttempts) {
            ++failures;
            counters_->transient.fetch_add(1,
                                           std::memory_order_relaxed);
            backoffSleep(failures, retry_.backoffBaseMicros);
            continue;
        }
        throwIoError(std::string(name) + " failed", path_, 0, 0, 0,
                     context, err);
    }
}

void
ByteFile::writeBehind(std::uint64_t bytes, const char *context)
{
#if defined(__linux__)
    std::atomic<std::uint64_t> &since = counters_->sinceKick;
    if (since.fetch_add(bytes) + bytes < kWriteBehindBytes)
        return;
    // Of the writers that crossed the threshold together, the one that
    // takes the count kicks.  The kick covers the whole file, so the
    // bytes the others added since are not left behind.
    if (since.exchange(0) < kWriteBehindBytes)
        return;
    const auto start = std::chrono::steady_clock::now();
    retryWholeFile(
        FaultOp::Kind::WriteBack,
        [](int fd) {
            return ::sync_file_range(fd, 0, 0, SYNC_FILE_RANGE_WRITE);
        },
        "sync_file_range (write-behind)", context);
    counters_->kicks.fetch_add(1, std::memory_order_relaxed);
    counters_->kickNanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()),
        std::memory_order_relaxed);
#else
    (void)bytes;
    (void)context;
#endif
}

IoRetryStats
ByteFile::retryStats() const
{
    IoRetryStats out;
    out.transientRetries =
        counters_->transient.load(std::memory_order_relaxed);
    out.eintrRetries = counters_->eintr.load(std::memory_order_relaxed);
    out.shortTransfers =
        counters_->shortTransfers.load(std::memory_order_relaxed);
    out.writeBackKicks = counters_->kicks.load(std::memory_order_relaxed);
    out.writeBackSeconds =
        static_cast<double>(
            counters_->kickNanos.load(std::memory_order_relaxed)) *
        1e-9;
    return out;
}

std::uint64_t
ByteFile::sizeBytes() const
{
    struct stat st = {};
    if (::fstat(fd_, &st) != 0)
        throwErrno("fstat failed", path_);
    return static_cast<std::uint64_t>(st.st_size);
}

void
syncDirectory(const std::string &dir)
{
    const std::string target = dir.empty() ? "." : dir;
    const int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        throwErrno("open directory for fsync failed", target);
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc != 0 && errno == EINTR);
    const int err = errno;
    ::close(fd);
    if (rc != 0) {
        errno = err;
        throwErrno("directory fsync failed", target);
    }
}

void
syncParentDirectory(const std::string &path)
{
    if (path.empty())
        return;
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos) {
        syncDirectory(".");
        return;
    }
    syncDirectory(slash == 0 ? "/" : path.substr(0, slash));
}

void
createDirectories(const std::string &dir)
{
    if (dir.empty())
        return;
    const std::string target = stripTrailingSlashes(dir);
    std::size_t pos = 0;
    while (pos != std::string::npos) {
        pos = target.find('/', pos + 1);
        const std::string prefix =
            pos == std::string::npos ? target : target.substr(0, pos);
        if (prefix.empty())
            continue;
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            throwErrno("mkdir failed", prefix);
    }
}

bool
fileExists(const std::string &path)
{
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0;
}

bool
removeFileIfExists(const std::string &path)
{
    if (::unlink(path.c_str()) == 0)
        return true;
    if (errno == ENOENT)
        return false;
    throwErrno("unlink failed", path);
}

void
renameReplace(const std::string &from, const std::string &to)
{
    if (::rename(from.c_str(), to.c_str()) != 0)
        throwErrno("rename failed", from + " -> " + to);
    syncParentDirectory(to);
}

} // namespace bonsai::io
