#ifndef QUAESTOR_COMMON_QUEUE_H_
#define QUAESTOR_COMMON_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace quaestor {

/// Thread-safe bounded multi-producer multi-consumer FIFO queue.
/// Producers block when the queue is full (backpressure — InvaliDB relies
/// on this to detect saturation); consumers block when it is empty.
/// `Close()` wakes all waiters; Pop returns nullopt once closed and drained.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until space is available or the queue is closed.
  /// Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false if full or closed.
  bool TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking drain: moves every queued item into `out` (appending,
  /// FIFO order) under a single lock acquisition. Returns how many items
  /// were moved. Consumers that process items in bulk use this instead of
  /// paying one lock round-trip per item.
  size_t TryPopAll(std::vector<T>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = items_.size();
    if (n == 0) return 0;
    out->reserve(out->size() + n);
    for (T& item : items_) out->push_back(std::move(item));
    items_.clear();
    not_full_.notify_all();
    return n;
  }

  /// Closes the queue: pending Pops drain remaining items then see nullopt;
  /// subsequent Pushes fail.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace quaestor

#endif  // QUAESTOR_COMMON_QUEUE_H_
