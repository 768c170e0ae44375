/**
 * @file
 * Deterministic fault injection for the out-of-core sort.
 *
 * A FaultInjector is a FaultPolicy (io/byte_io.hpp) driven by a seeded
 * schedule over the file's global attempt sequence: the Nth read (or
 * write) attempt issued against the file misbehaves the same way on
 * every run, regardless of which worker thread issues it.  That makes
 * failure tests reproducible: the schedule decides *when* a fault
 * fires, the splitmix64 mix of (seed, attempt index) decides *how
 * short* a truncated transfer is.
 *
 * Fault classes, in priority order when several match one attempt:
 *
 *  - hard ENOSPC once a write would cross a configured byte offset
 *    (models a full device; never heals),
 *  - transient EIO for a window of consecutive attempts starting at a
 *    chosen attempt index (the retry loop in ByteFile supplies the
 *    consecutive attempts, so the fault "heals after N tries"),
 *  - EINTR storms: bursts of interrupted syscalls at a fixed cadence,
 *  - short transfers: every Kth attempt is truncated to a
 *    seed-derived fraction of the requested bytes.
 *
 * Syncs and write-behind kicks keep attempt counters of their own and
 * take only their own plan fields (a fixed errno on every attempt, a
 * crash index), so adding either never renumbers the read and write
 * attempts that the classes above and the crash sweep index.
 *
 * All counters are relaxed atomics; the injector is shared by the
 * phase-1 stages and the concurrent merge tasks of a StreamEngine.
 */

#ifndef BONSAI_IO_FAULT_INJECTION_HPP
#define BONSAI_IO_FAULT_INJECTION_HPP

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>

#include <unistd.h>

#include "io/byte_io.hpp"

namespace bonsai::io
{

/** Seeded fault schedule.  Zero disables the corresponding class. */
struct FaultPlan {
    /** Never-matching sentinel for enospcAtWriteByte. */
    static constexpr std::uint64_t kNoEnospc = ~std::uint64_t{0};

    std::uint64_t seed = 1; ///< varies short-transfer lengths

    /** Truncate every Kth read / write attempt (0 = off). */
    unsigned shortEveryReads = 0;
    unsigned shortEveryWrites = 0;

    /** EINTR storm: @p eintrBurst interruptions every Kth attempt. */
    unsigned eintrEvery = 0;
    unsigned eintrBurst = 3;

    /** Transient EIO starting at this 1-based attempt index (0=off). */
    unsigned eioOnReadAttempt = 0;
    unsigned eioOnWriteAttempt = 0;
    /** Consecutive failures before the EIO heals. */
    unsigned eioFailures = 2;

    /** Writes fail ENOSPC once they would extend past this byte. */
    std::uint64_t enospcAtWriteByte = kNoEnospc;

    /** Nonzero: every sync attempt fails with this errno. */
    int failSyncWith = 0;

    /** Nonzero: every write-behind kick attempt fails with this
     *  errno. */
    int failWriteBackWith = 0;

    /**
     * CrashPoints: _exit(137) — SIGKILL's exit code, no destructors,
     * no flushes — the instant the 1-based read / write / sync /
     * write-behind attempt counter reaches this index (0 = off).  The
     * crash-injection harness forks the sort, installs an injector
     * with one of these set, and sweeps the index across the attempt
     * sequence to model a process killed at every interesting I/O
     * boundary.
     */
    std::uint64_t crashOnReadAttempt = 0;
    std::uint64_t crashOnWriteAttempt = 0;
    std::uint64_t crashOnSyncAttempt = 0;
    std::uint64_t crashOnWriteBackAttempt = 0;
};

/** Deterministic FaultPolicy; see the file comment for semantics. */
class FaultInjector final : public FaultPolicy
{
  public:
    explicit FaultInjector(const FaultPlan &plan) : plan_(plan) {}

    FaultAction onAttempt(const FaultOp &op) override
    {
        if (op.kind == FaultOp::Kind::Sync)
            return wholeFile(syncAttempts_, plan_.crashOnSyncAttempt,
                             plan_.failSyncWith, injectedSyncFailures_);
        if (op.kind == FaultOp::Kind::WriteBack)
            return wholeFile(writeBackAttempts_,
                             plan_.crashOnWriteBackAttempt,
                             plan_.failWriteBackWith,
                             injectedWriteBackFailures_);
        FaultAction act;
        const bool isRead = op.kind == FaultOp::Kind::Read;
        const std::uint64_t idx =
            1 + (isRead ? readAttempts_ : writeAttempts_)
                    .fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t crashAt = isRead
                                          ? plan_.crashOnReadAttempt
                                          : plan_.crashOnWriteAttempt;
        if (crashAt != 0 && idx == crashAt)
            ::_exit(137);
        if (!isRead && plan_.enospcAtWriteByte != FaultPlan::kNoEnospc &&
            op.offset + op.bytes > plan_.enospcAtWriteByte) {
            injectedEnospc_.fetch_add(1, std::memory_order_relaxed);
            act.failWith = ENOSPC;
            return act;
        }
        const unsigned eioAt =
            isRead ? plan_.eioOnReadAttempt : plan_.eioOnWriteAttempt;
        if (eioAt != 0 && idx >= eioAt &&
            idx < std::uint64_t{eioAt} + plan_.eioFailures) {
            injectedEio_.fetch_add(1, std::memory_order_relaxed);
            act.failWith = EIO;
            return act;
        }
        if (plan_.eintrEvery != 0 && idx >= plan_.eintrEvery &&
            idx % plan_.eintrEvery <
                std::min(plan_.eintrBurst, plan_.eintrEvery - 1)) {
            injectedEintr_.fetch_add(1, std::memory_order_relaxed);
            act.failWith = EINTR;
            return act;
        }
        const unsigned shortEvery =
            isRead ? plan_.shortEveryReads : plan_.shortEveryWrites;
        if (shortEvery != 0 && idx % shortEvery == 0 && op.bytes > 1) {
            // Truncate to a seed-derived length in [1, bytes-1].
            act.maxBytes = 1 + mix(plan_.seed ^ idx) % (op.bytes - 1);
            injectedShort_.fetch_add(1, std::memory_order_relaxed);
        }
        return act;
    }

    std::uint64_t injectedShort() const
    {
        return injectedShort_.load(std::memory_order_relaxed);
    }
    std::uint64_t injectedEintr() const
    {
        return injectedEintr_.load(std::memory_order_relaxed);
    }
    std::uint64_t injectedEio() const
    {
        return injectedEio_.load(std::memory_order_relaxed);
    }
    std::uint64_t injectedEnospc() const
    {
        return injectedEnospc_.load(std::memory_order_relaxed);
    }
    std::uint64_t injectedSyncFailures() const
    {
        return injectedSyncFailures_.load(std::memory_order_relaxed);
    }
    std::uint64_t injectedWriteBackFailures() const
    {
        return injectedWriteBackFailures_.load(std::memory_order_relaxed);
    }

    /** Attempt totals, for sizing a crash-point sweep: a counting run
     *  with no faults reports how many attempts of each kind one sort
     *  issues, and the sweep picks crash indices inside that range. */
    std::uint64_t readAttempts() const
    {
        return readAttempts_.load(std::memory_order_relaxed);
    }
    std::uint64_t writeAttempts() const
    {
        return writeAttempts_.load(std::memory_order_relaxed);
    }
    std::uint64_t syncAttempts() const
    {
        return syncAttempts_.load(std::memory_order_relaxed);
    }
    std::uint64_t writeBackAttempts() const
    {
        return writeBackAttempts_.load(std::memory_order_relaxed);
    }

  private:
    /** A sync or write-behind attempt: its own counter, crash index
     *  and fixed errno. */
    static FaultAction wholeFile(std::atomic<std::uint64_t> &attempts,
                                 std::uint64_t crashAt, int failWith,
                                 std::atomic<std::uint64_t> &injected)
    {
        const std::uint64_t idx =
            1 + attempts.fetch_add(1, std::memory_order_relaxed);
        if (crashAt != 0 && idx == crashAt)
            ::_exit(137);
        FaultAction act;
        if (failWith != 0) {
            injected.fetch_add(1, std::memory_order_relaxed);
            act.failWith = failWith;
        }
        return act;
    }

    /** splitmix64 finalizer: cheap, stateless, well mixed. */
    static std::uint64_t mix(std::uint64_t z)
    {
        z += 0x9E3779B97F4A7C15ull;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    FaultPlan plan_;
    std::atomic<std::uint64_t> readAttempts_{0};
    std::atomic<std::uint64_t> writeAttempts_{0};
    std::atomic<std::uint64_t> syncAttempts_{0};
    std::atomic<std::uint64_t> writeBackAttempts_{0};
    std::atomic<std::uint64_t> injectedShort_{0};
    std::atomic<std::uint64_t> injectedEintr_{0};
    std::atomic<std::uint64_t> injectedEio_{0};
    std::atomic<std::uint64_t> injectedEnospc_{0};
    std::atomic<std::uint64_t> injectedSyncFailures_{0};
    std::atomic<std::uint64_t> injectedWriteBackFailures_{0};
};

} // namespace bonsai::io

#endif // BONSAI_IO_FAULT_INJECTION_HPP
