// Long-lived worker-thread pool backing the execution engine (parallel.h).
//
// The pool owns N worker threads that drain a FIFO work queue. Work items
// are type-erased void() closures; submission never blocks (the queue is
// unbounded) and the destructor drains outstanding work before joining, so
// shutdown is clean even with jobs still queued. The pool can grow — never
// shrink — via EnsureWorkers, which lets one process-wide pool serve every
// ParallelFor thread-count request without respawning threads per call.
//
// Most code should not touch this class directly: use ParallelFor
// (util/parallel.h), which shards a range over the shared pool with a
// deterministic static partition.

#ifndef KGC_UTIL_THREAD_POOL_H_
#define KGC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kgc {

class ThreadPool {
 public:
  /// Spawns `num_workers` threads (0 is valid: an empty pool that can grow).
  explicit ThreadPool(int num_workers);

  /// Drains queued work, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job; some worker will run it. Must not be called after (or
  /// concurrently with) destruction.
  void Submit(std::function<void()> job);

  /// Grows the pool to at least `num_workers` threads. Thread-safe.
  void EnsureWorkers(int num_workers);

  int NumWorkersForTest() const;

  /// The process-wide pool shared by all ParallelFor calls. Created on
  /// first use with DefaultThreadCount() - 1 workers (the calling thread
  /// always executes one shard itself); grown on demand.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace kgc

#endif  // KGC_UTIL_THREAD_POOL_H_
