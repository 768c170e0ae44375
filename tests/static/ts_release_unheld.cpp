/**
 * @file
 * Negative fixture: releasing a mutex the caller does not hold (an
 * unlock on the wrong path — e.g. a relocking worker loop whose error
 * branch unlocks twice).  Must FAIL to compile under
 * -Wthread-safety -Werror with
 *     "releasing mutex 'mu_' that was not held"
 * (the harness asserts that substring).
 */

#include "common/sync.hpp"

namespace
{

class Releaser
{
  public:
    void
    releaseUnheld() BONSAI_EXCLUDES(mu_)
    {
        mu_.unlock(); // BAD: never locked on this path.
    }

  private:
    bonsai::Mutex mu_;
    long state_ BONSAI_GUARDED_BY(mu_) = 0;
};

} // namespace

int
main()
{
    Releaser r;
    r.releaseUnheld();
    return 0;
}
