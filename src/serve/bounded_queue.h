// Bounded MPSC work queue for the serving batch loop.
//
// Admission control lives at the push side: TryPush never blocks and never
// grows past capacity — when the batch thread falls behind, producers learn
// immediately and shed the request with a typed OVERLOADED reply instead of
// queueing toward collapse (DESIGN.md "Serving").

#ifndef KGC_SERVE_BOUNDED_QUEUE_H_
#define KGC_SERVE_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

namespace kgc::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// Enqueues unless the queue is full or closed. Never blocks.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Pops up to `max_batch` items. Blocks until at least one item arrives
  /// (rechecking `closed` every 100ms), then takes whatever is queued.
  /// Returns an empty batch only when closed and drained.
  std::vector<T> PopBatch(size_t max_batch) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (items_.empty() && !closed_) {
      ready_.wait_for(lock, std::chrono::milliseconds(100));
    }
    if (items_.empty()) return {};  // closed and drained
    std::vector<T> batch;
    size_t take = std::min(items_.size(), max_batch);
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return batch;
  }

  /// Rejects future pushes; PopBatch keeps returning queued items until
  /// empty (the drain path), then returns empty batches.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace kgc::serve

#endif  // KGC_SERVE_BOUNDED_QUEUE_H_
