/**
 * @file
 * Positive control for the thread-safety fixture harness: a correct
 * producer/consumer over the common/sync.hpp capabilities, including
 * the relockable ScopedLock (unlock(), then lock() again in the same
 * scope).
 * This file must COMPILE CLEAN under
 * -Wthread-safety -Wthread-safety-beta -Werror; if it ever fails, the
 * harness (not the negative fixtures) is what broke.
 */

#include "common/sync.hpp"

namespace
{

class Channel
{
  public:
    void
    produce() BONSAI_EXCLUDES(mu_)
    {
        {
            bonsai::ScopedLock lock(mu_);
            ready_ = true;
        }
        cv_.notifyAll();
    }

    long
    consume() BONSAI_EXCLUDES(mu_)
    {
        bonsai::ScopedLock lock(mu_);
        while (!ready_)
            cv_.wait(mu_);
        ready_ = false;
        // Open the critical section around a long operation, then
        // re-establish it — the analyzer checks both transitions.
        lock.unlock();
        lock.lock();
        return ++cycles_;
    }

  private:
    bonsai::Mutex mu_;
    bonsai::CondVar cv_;
    bool ready_ BONSAI_GUARDED_BY(mu_) = false;
    long cycles_ BONSAI_GUARDED_BY(mu_) = 0;
};

} // namespace

int
main()
{
    Channel ch;
    ch.produce();
    const long cycles = ch.consume();
    bonsai::ErrorTrap trap;
    trap.rethrowIfSet();
    return cycles == 1 ? 0 : 1;
}
