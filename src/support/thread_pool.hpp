// A small persistent worker pool for data-parallel loops.
//
// The erosion step kernel (erosion::counter_decide_apply, one task per
// disc) and the sweep layer's parallel_map (cli/sweep.hpp) need "run fn(i)
// for i in [0, n) on k threads, then wait" — nothing more. ThreadPool keeps
// k-1 workers parked on a condition variable between calls so per-step
// dispatch overhead stays in the microsecond range, and the calling thread
// always participates (a pool of 1 runs everything inline, with no workers
// and no synchronization — the serial reference path).
//
// Determinism contract: parallel_for guarantees every index is executed
// exactly once and the call does not return before all indices finish; it
// guarantees nothing about order. Callers that need reproducible results must
// make iterations independent (e.g. position-addressed draws) — see
// erosion/counter_kernel.hpp.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ulba::support {

class ThreadPool {
 public:
  /// A pool that runs parallel_for on `threads` threads total (the caller
  /// plus threads-1 workers). `threads` is clamped to at least 1; pass
  /// hardware_threads() for one thread per core.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute a parallel_for (workers + caller).
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Execute fn(0), …, fn(n-1), each exactly once, across the pool; blocks
  /// until all have finished. Indices are claimed one at a time under the
  /// pool mutex, so imbalanced iterations pack tightly — sized for coarse
  /// work items (whole discs, whole sweep cases), NOT for per-cell loops
  /// where one lock acquisition per index would dominate the work.
  /// Exceptions thrown by `fn` are rethrown on the calling thread (first
  /// one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static std::size_t hardware_threads();

 private:
  void worker_loop();
  void run_range();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;  ///< guarded
  std::size_t job_size_ = 0;
  std::size_t next_index_ = 0;   ///< guarded by mutex_ (one claim per lock)
  std::size_t active_ = 0;       ///< workers still inside the current job
  std::uint64_t generation_ = 0; ///< bumps once per parallel_for
  std::exception_ptr first_error_;  ///< guarded
  bool stopping_ = false;
};

}  // namespace ulba::support
