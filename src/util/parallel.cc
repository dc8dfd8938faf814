#include "util/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/trace.h"

namespace adr {

namespace {

// Work below this many arithmetic ops is cheaper to run inline than to
// wake a worker for (a wake is ~1-10us; 256K float MACs are ~50-100us).
constexpr int64_t kMinOpsPerChunk = int64_t{1} << 18;

// True while this thread is executing a pool chunk: nested Run calls
// (e.g. a parallelized kernel invoked from inside another parallel
// region) fall back to inline execution instead of deadlocking on the
// single job slot.
thread_local bool t_in_pool_chunk = false;

std::mutex& GlobalMutex() {
  static std::mutex mu;
  return mu;
}

ThreadPool*& GlobalSlot() {
  static ThreadPool* pool = nullptr;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunChunks() {
  while (true) {
    const int64_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job_chunks_) break;
    try {
      ADR_TRACE_SPAN("pool_chunk");
      (*job_)(chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::WorkerLoop(int worker_index) {
  Tracer::Global().SetCurrentThreadName("adr-worker-" +
                                        std::to_string(worker_index));
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    t_in_pool_chunk = true;
    RunChunks();
    t_in_pool_chunk = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_running_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::Run(int64_t num_chunks,
                     const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  if (workers_.empty() || num_chunks == 1 || t_in_pool_chunk) {
    // Inline path: no locking, and exceptions propagate unchanged — this
    // keeps the 1-thread configuration behaviourally identical to the
    // pre-pool serial code.
    for (int64_t i = 0; i < num_chunks; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_chunks_ = num_chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    workers_running_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  t_in_pool_chunk = true;
  RunChunks();
  t_in_pool_chunk = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_running_ == 0; });
    job_ = nullptr;
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

int ThreadPool::DefaultThreads() {
  if (const char* env = std::getenv("ADR_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    // The range check also rejects strtol's saturated LONG_MAX on overflow.
    if (end != env && *end == '\0' && parsed > 0 && parsed <= kMaxThreads) {
      return static_cast<int>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(std::min<unsigned>(hw, kMaxThreads)) : 1;
}

ThreadPool* ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalMutex());
  ThreadPool*& pool = GlobalSlot();
  if (pool == nullptr) pool = new ThreadPool(DefaultThreads());
  return pool;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  num_threads = std::max(1, num_threads);
  std::lock_guard<std::mutex> lock(GlobalMutex());
  ThreadPool*& pool = GlobalSlot();
  if (pool != nullptr && pool->num_threads() == num_threads) return;
  delete pool;
  pool = new ThreadPool(num_threads);
}

int ThreadPool::GlobalThreads() { return Global()->num_threads(); }

void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  const int64_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1) {
    fn(0, n);
    return;
  }
  ThreadPool::Global()->Run(num_chunks, [&](int64_t chunk) {
    const int64_t begin = chunk * grain;
    fn(begin, std::min(begin + grain, n));
  });
}

int64_t GrainForCost(int64_t ops_per_item) {
  if (ops_per_item <= 0) return kMinOpsPerChunk;
  return std::max<int64_t>(1, kMinOpsPerChunk / ops_per_item);
}

}  // namespace adr
