/**
 * @file
 * Negative fixture: writing a BONSAI_GUARDED_BY member without
 * holding its mutex.  Must FAIL to compile under
 * -Wthread-safety -Werror with
 *     "requires holding mutex 'mu_'"
 * (the harness asserts that substring).  This is the core guarantee:
 * an unlocked access to shared job state in ThreadPool or BufferPool
 * is a compile error, not a TSan lottery ticket.
 */

#include "common/sync.hpp"

namespace
{

class Counter
{
  public:
    void
    incrementUnlocked() BONSAI_EXCLUDES(mu_)
    {
        ++value_; // BAD: mu_ is not held here.
    }

  private:
    bonsai::Mutex mu_;
    long value_ BONSAI_GUARDED_BY(mu_) = 0;
};

} // namespace

int
main()
{
    Counter c;
    c.incrementUnlocked();
    return 0;
}
