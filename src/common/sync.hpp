/**
 * @file
 * Annotated synchronization layer: the one place raw std primitives
 * are allowed, wrapped as Clang thread-safety *capabilities*.
 *
 * Every mutex-holding type in the tree (ThreadPool, BufferPool,
 * ErrorTrap, ...) declares its lock as a
 * bonsai::Mutex, its guarded members with BONSAI_GUARDED_BY, and its
 * locking methods with BONSAI_ACQUIRE / BONSAI_RELEASE /
 * BONSAI_REQUIRES / BONSAI_EXCLUDES.  Under Clang's -Wthread-safety
 * analysis (the `thread-safety` CI job builds with
 * -Wthread-safety -Wthread-safety-beta promoted to errors) that turns
 * the locking discipline from a runtime property TSan has to catch on
 * a lucky schedule into a structural property proven on every build:
 * unlocked access to a guarded member, double-acquire, releasing a
 * lock that is not held, waiting on a condition variable without its
 * mutex, and acquired_before order violations all *fail to compile*
 * (tests/static/ pins each diagnostic).  On non-Clang toolchains the
 * macros compile to nothing and the wrappers are zero-cost veneers
 * over the std primitives.
 *
 * Lock discipline (see docs/ARCHITECTURE.md, "Lock hierarchy & static
 * concurrency verification"): every lock in the tree is a *leaf* —
 * public entry points are annotated BONSAI_EXCLUDES(their mutex) and
 * no critical section acquires a second lock, so no cross-object
 * lock-order cycle can exist by construction.  Blocking *resource*
 * acquisition still has an order (thread pool -> buffer pool); the
 * analyzer enforces intra-object edges declared with
 * BONSAI_ACQUIRED_BEFORE, and the hierarchy itself is documented
 * there.
 *
 * Style gate: scripts/check_style.py confines std::mutex,
 * std::condition_variable, std::lock_guard, std::unique_lock and
 * std::scoped_lock to this header, and requires every bonsai::Mutex
 * member elsewhere to sit adjacent to at least one BONSAI_GUARDED_BY
 * annotation.
 */

#ifndef BONSAI_COMMON_SYNC_HPP
#define BONSAI_COMMON_SYNC_HPP

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>

/*
 * Annotation macros.  Clang spells these as GNU attributes; other
 * compilers see empty token soup.  The names follow the "modern"
 * capability vocabulary of the Clang docs (capability / acquire /
 * release) rather than the legacy lockable / lock_function spelling.
 */
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define BONSAI_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef BONSAI_THREAD_ANNOTATION_
#define BONSAI_THREAD_ANNOTATION_(x)
#endif

/** Type is a capability (a lock); diagnostics call it @p x. */
#define BONSAI_CAPABILITY(x) BONSAI_THREAD_ANNOTATION_(capability(x))

/** RAII type that acquires a capability for its own lifetime. */
#define BONSAI_SCOPED_CAPABILITY BONSAI_THREAD_ANNOTATION_(scoped_lockable)

/** Member readable/writable only while holding capability @p x. */
#define BONSAI_GUARDED_BY(x) BONSAI_THREAD_ANNOTATION_(guarded_by(x))

/** Pointee readable/writable only while holding capability @p x. */
#define BONSAI_PT_GUARDED_BY(x) BONSAI_THREAD_ANNOTATION_(pt_guarded_by(x))

/** Function acquires the capability (must not be held at the call). */
#define BONSAI_ACQUIRE(...)                                              \
    BONSAI_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/** Function releases the capability (must be held at the call). */
#define BONSAI_RELEASE(...)                                              \
    BONSAI_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/** Caller must hold the capability across the call (e.g. CondVar
 *  wait, which releases and re-acquires it internally). */
#define BONSAI_REQUIRES(...)                                             \
    BONSAI_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/** Caller must NOT hold the capability: the leaf-lock discipline —
 *  annotating every public locking entry point with this is what
 *  makes self-deadlock (re-entry) a compile error. */
#define BONSAI_EXCLUDES(...)                                             \
    BONSAI_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/** Declares a lock-order edge: this capability is acquired before
 *  the listed ones; wrong-order acquisition is rejected under
 *  -Wthread-safety-beta. */
#define BONSAI_ACQUIRED_BEFORE(...)                                      \
    BONSAI_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

/** Reverse spelling of BONSAI_ACQUIRED_BEFORE. */
#define BONSAI_ACQUIRED_AFTER(...)                                       \
    BONSAI_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/** Function returns a reference to the capability guarding it. */
#define BONSAI_RETURN_CAPABILITY(x)                                      \
    BONSAI_THREAD_ANNOTATION_(lock_returned(x))

/** Escape hatch: body is not analyzed.  Used only inside this header,
 *  where the wrappers manipulate the raw std primitives that the
 *  analysis cannot see through; the interface attributes still hold
 *  for every caller. */
#define BONSAI_NO_THREAD_SAFETY_ANALYSIS                                 \
    BONSAI_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace bonsai
{

class CondVar;

/**
 * Annotated exclusive mutex — a std::mutex the analyzer can track.
 * Prefer ScopedLock over calling lock()/unlock() directly.
 */
class BONSAI_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() BONSAI_ACQUIRE() BONSAI_NO_THREAD_SAFETY_ANALYSIS
    {
        raw_.lock();
    }

    void unlock() BONSAI_RELEASE() BONSAI_NO_THREAD_SAFETY_ANALYSIS
    {
        raw_.unlock();
    }

  private:
    friend class CondVar;
    std::mutex raw_;
};

/**
 * RAII lock over a Mutex, relockable like std::unique_lock: lock()
 * and unlock() let a critical section end before its scope does
 * (BufferPool::acquire drops its lock before allocating a fresh
 * buffer) while the analyzer still checks that every path
 * re-establishes the expected lock state.
 */
class BONSAI_SCOPED_CAPABILITY ScopedLock
{
  public:
    explicit ScopedLock(Mutex &mutex)
        BONSAI_ACQUIRE(mutex) BONSAI_NO_THREAD_SAFETY_ANALYSIS
        : mutex_(mutex), held_(true)
    {
        mutex_.lock();
    }

    ~ScopedLock() BONSAI_RELEASE() BONSAI_NO_THREAD_SAFETY_ANALYSIS
    {
        if (held_)
            mutex_.unlock();
    }

    ScopedLock(const ScopedLock &) = delete;
    ScopedLock &operator=(const ScopedLock &) = delete;

    /** Re-acquire after unlock(). */
    void lock() BONSAI_ACQUIRE() BONSAI_NO_THREAD_SAFETY_ANALYSIS
    {
        mutex_.lock();
        held_ = true;
    }

    /** Release before the scope ends (the destructor then no-ops). */
    void unlock() BONSAI_RELEASE() BONSAI_NO_THREAD_SAFETY_ANALYSIS
    {
        mutex_.unlock();
        held_ = false;
    }

  private:
    Mutex &mutex_;
    bool held_;
};

/**
 * Condition variable bound to a Mutex at each wait.  wait() carries
 * BONSAI_REQUIRES(mutex): waiting without holding the mutex is a
 * compile error, not a lost-wakeup heisenbug.  Waits can wake
 * spuriously — callers always loop on their predicate:
 *
 *     ScopedLock lock(mutex_);
 *     while (!ready_)
 *         cv_.wait(mutex_);
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p mutex, sleep, re-acquire.  The caller
     *  must hold @p mutex (and, per the ScopedLock idiom above, holds
     *  it through a ScopedLock whose scope spans the wait). */
    void wait(Mutex &mutex)
        BONSAI_REQUIRES(mutex) BONSAI_NO_THREAD_SAFETY_ANALYSIS
    {
        std::unique_lock<std::mutex> relock(mutex.raw_,
                                            std::adopt_lock);
        cv_.wait(relock);
        relock.release();
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

/**
 * First-error latch for parallel tasks.  ThreadPool::parallelFor
 * tasks must not throw (a leaked exception kills a pool worker), so
 * concurrent tasks trap the first failure here and the submitting
 * thread rethrows it after the join.
 *
 * First error wins: exactly one exception comes out of rethrowIfSet;
 * every later failure is counted for telemetry (secondaryCount())
 * instead of being silently dropped.
 */
class ErrorTrap
{
  public:
    /** Record @p err if no earlier task already failed; count it as
     *  secondary otherwise. */
    void
    store(std::exception_ptr err) BONSAI_EXCLUDES(mutex_)
    {
        ScopedLock lock(mutex_);
        if (error_) {
            ++secondary_; // an earlier failure won; count this one
            return;
        }
        error_ = err;
    }

    /** Rethrow the trapped error, if any (consuming it). */
    void
    rethrowIfSet() BONSAI_EXCLUDES(mutex_)
    {
        std::exception_ptr err;
        {
            ScopedLock lock(mutex_);
            err = error_;
            error_ = nullptr;
        }
        if (err)
            std::rethrow_exception(err);
    }

    /** Errors suppressed behind the winning one (telemetry). */
    std::uint64_t
    secondaryCount() const BONSAI_EXCLUDES(mutex_)
    {
        ScopedLock lock(mutex_);
        return secondary_;
    }

  private:
    mutable Mutex mutex_;
    std::exception_ptr error_ BONSAI_GUARDED_BY(mutex_);
    std::uint64_t secondary_ BONSAI_GUARDED_BY(mutex_) = 0;
};

} // namespace bonsai

#endif // BONSAI_COMMON_SYNC_HPP
