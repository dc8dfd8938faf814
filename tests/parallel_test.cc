// Unit tests of the parallel runtime: ParallelFor chunking semantics,
// exception propagation through the pool, and thread-count plumbing.

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tests/thread_count_guard.h"

namespace adr {
namespace {

using testutil::ThreadCountGuard;

TEST(ParallelForTest, EmptyRangeNeverCallsFn) {
  std::atomic<int> calls{0};
  ParallelFor(0, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(-5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(7, 100, [&](int64_t begin, int64_t end) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(begin, end);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0);
  EXPECT_EQ(ranges[0].second, 7);
}

TEST(ParallelForTest, ChunksCoverRangeExactlyOnce) {
  ThreadCountGuard guard;
  for (const int threads : {1, 3}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const int64_t n : {1, 2, 17, 64, 1000}) {
      for (const int64_t grain : {1, 3, 7, 64, 2000}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto& h : hits) h = 0;
        ParallelFor(n, grain, [&](int64_t begin, int64_t end) {
          ASSERT_LE(0, begin);
          ASSERT_LT(begin, end);
          ASSERT_LE(end, n);
          for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
        });
        for (int64_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "n=" << n << " grain=" << grain << " i=" << i;
        }
      }
    }
  }
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfThreadCount) {
  ThreadCountGuard guard;
  auto boundaries = [](int64_t n, int64_t grain) {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> ranges;
    ParallelFor(n, grain, [&](int64_t begin, int64_t end) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.emplace_back(begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  };
  ThreadPool::SetGlobalThreads(1);
  const auto serial = boundaries(1000, 13);
  ThreadPool::SetGlobalThreads(4);
  EXPECT_EQ(boundaries(1000, 13), serial);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ThreadCountGuard guard;
  for (const int threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    EXPECT_THROW(
        ParallelFor(100, 1,
                    [&](int64_t begin, int64_t) {
                      if (begin >= 50) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int64_t> sum{0};
    ParallelFor(10, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) sum += i;
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ParallelForTest, NestedCallsRunInline) {
  ThreadCountGuard guard;
  ThreadPool::SetGlobalThreads(4);
  std::atomic<int> inner_calls{0};
  // An inner ParallelFor inside a pool chunk must not deadlock on the
  // single job slot; it executes inline on the calling thread.
  ParallelFor(8, 1, [&](int64_t, int64_t) {
    ParallelFor(4, 1, [&](int64_t begin, int64_t end) {
      inner_calls += static_cast<int>(end - begin);
    });
  });
  EXPECT_EQ(inner_calls.load(), 32);
}

TEST(ThreadPoolTest, SetGlobalThreadsClampsToOne) {
  ThreadCountGuard guard;
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 1);
  ThreadPool::SetGlobalThreads(-3);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 1);
  ThreadPool::SetGlobalThreads(5);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 5);
}

// Sets ADR_THREADS for one scope and restores the previous value.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("ADR_THREADS")) {
      had_value_ = true;
      saved_ = old;
    }
    ::setenv("ADR_THREADS", value, /*overwrite=*/1);
  }
  ~ScopedThreadsEnv() {
    if (had_value_) {
      ::setenv("ADR_THREADS", saved_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv("ADR_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

// Only DefaultThreads() is called: no pool is built from these values.
TEST(ThreadPoolTest, DefaultThreadsRejectsCountsAboveTheCap) {
  int fallback = 0;
  {
    ScopedThreadsEnv env("garbage");
    fallback = ThreadPool::DefaultThreads();
  }
  EXPECT_GE(fallback, 1);
  EXPECT_LE(fallback, ThreadPool::kMaxThreads);
  {
    ScopedThreadsEnv env("3");
    EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  }
  {
    ScopedThreadsEnv env("256");
    EXPECT_EQ(ThreadPool::DefaultThreads(), ThreadPool::kMaxThreads);
  }
  // Above the cap, past int (4294967297 was once cast to 1 thread), past
  // long, zero and negative: all fall back like any invalid value.
  for (const char* invalid : {"257", "100000", "4294967297",
                              "99999999999999999999999", "0", "-2"}) {
    ScopedThreadsEnv env(invalid);
    EXPECT_EQ(ThreadPool::DefaultThreads(), fallback) << invalid;
  }
}

TEST(ThreadPoolTest, GrainForCostScalesInversely) {
  EXPECT_GE(GrainForCost(1), GrainForCost(100));
  EXPECT_EQ(GrainForCost(1 << 30), 1);  // expensive items: one per chunk
  EXPECT_GE(GrainForCost(1), 1);
}

TEST(ThreadPoolTest, DirectRunExecutesEveryChunkOnce) {
  ThreadCountGuard guard;
  ThreadPool::SetGlobalThreads(3);
  std::vector<std::atomic<int>> hits(16);
  for (auto& h : hits) h = 0;
  ThreadPool::Global()->Run(16, [&](int64_t chunk) {
    ++hits[static_cast<size_t>(chunk)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace adr
