// Restores the global pool's thread count on scope exit, so a test that
// resizes the pool does not leak its setting into other tests.

#ifndef ADR_TESTS_THREAD_COUNT_GUARD_H_
#define ADR_TESTS_THREAD_COUNT_GUARD_H_

#include "util/parallel.h"

namespace adr::testutil {

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ThreadPool::GlobalThreads()) {}
  ~ThreadCountGuard() { ThreadPool::SetGlobalThreads(saved_); }

  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

}  // namespace adr::testutil

#endif  // ADR_TESTS_THREAD_COUNT_GUARD_H_
