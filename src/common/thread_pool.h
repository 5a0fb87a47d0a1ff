// Fixed-size worker thread pool shared by query execution (morsel-driven
// parallel scans, see engine/exec.cc), the bulk loader (parallel document
// serialization) and the column materializer (parallel backfill).
//
// Semantics:
//  - Submit() enqueues a Status-returning task and hands back a future that
//    carries the task's Status; an exception thrown by the task propagates
//    through std::future::get().
//  - Shutdown() (and the destructor) drains every already-queued task before
//    joining the workers — queued work is never dropped. After Shutdown,
//    Submit runs the task inline on the calling thread, so returned futures
//    are always satisfied.
//  - ParallelFor() is the morsel helper: it splits [begin, end) into chunks
//    and runs them on up to `degree` concurrent tasks, claiming chunks from
//    a shared cursor so fast workers steal the remainder. degree <= 1 (or a
//    pool with no workers) runs inline on the caller — the serial fallback.
//    Tasks must not call ParallelFor on the pool that runs them (a saturated
//    pool would make the inner wait depend on the outer task's own slot).
//
// ThreadPool::Shared() is the process-wide instance; its size comes from
// SINEW_THREADS or std::thread::hardware_concurrency. Per-query parallelism
// degrees are chosen by the planner (PlannerOptions::parallelism) and only
// bound how many tasks a query submits — the pool itself is fixed.

#ifndef SINEW_COMMON_THREAD_POOL_H_
#define SINEW_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"

namespace sinew {

class ThreadPool {
 public:
  /// Spawns `workers` threads. 0 workers is legal: every Submit runs inline.
  explicit ThreadPool(size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  /// Enqueues a task; the future resolves to the task's Status (or rethrows
  /// the task's exception from get()).
  std::future<Status> Submit(std::function<Status()> fn);

  /// Runs every queued task, then joins the workers. Idempotent.
  void Shutdown();

  /// Splits [begin, end) into chunks of up to `chunk` elements and runs
  /// fn(lo, hi) over them on up to `degree` concurrent tasks. Returns the
  /// first non-OK Status. An error is recorded when the failing fn returns,
  /// not before. Chunks already running finish; each other task checks for
  /// a recorded error before it claims a chunk, so after the record it
  /// starts at most one more chunk (one whose check ran before the record),
  /// and the remaining chunks are skipped. Runs inline when degree <= 1 or
  /// the pool has no workers, stopping at the first error.
  Status ParallelFor(uint64_t begin, uint64_t end, uint64_t chunk,
                     size_t degree,
                     const std::function<Status(uint64_t, uint64_t)>& fn);

  /// The process-wide shared pool (created on first use; never destroyed
  /// before exit). Sized from SINEW_THREADS when set, else
  /// hardware_concurrency, with a floor of 2 so single-core machines still
  /// interleave tasks.
  static ThreadPool* Shared();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<Status()>> queue_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
};

}  // namespace sinew

#endif  // SINEW_COMMON_THREAD_POOL_H_
