#include "util/thread_pool.h"

#include "obs/env.h"
#include "util/parallel.h"

namespace kgc {

ThreadPool::ThreadPool(int num_workers) { EnsureWorkers(num_workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  work_available_.notify_one();
}

void ThreadPool::EnsureWorkers(int num_workers) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(workers_.size()) < num_workers) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::NumWorkersForTest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue before honoring shutdown so destruction never
      // strands a submitted job (ParallelFor waits on every shard).
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Meyers singleton: destroyed (and its workers joined) at process exit,
  // which keeps TSan/ASan exit reports clean.
  static ThreadPool pool(DefaultThreadCount() - 1);
  return pool;
}

int DefaultThreadCount() {
  static const int count = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return obs::EnvNumber("KGC_THREADS", hw >= 1 ? static_cast<int>(hw) : 1,
                          1);
  }();
  return count;
}

}  // namespace kgc
