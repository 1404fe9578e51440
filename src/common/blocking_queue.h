#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace xt {

/// Unbounded multi-producer multi-consumer blocking queue, the C++ analogue
/// of the `queue.Queue` / `multiprocessing.Queue` channels XingTian is built
/// on (paper Section 4.1). A blocking `pop` wakes the instant an element is
/// pushed, which is what lets worker threads move requests through the
/// channel in an event-driven manner.
///
/// `close()` releases all blocked consumers; a closed queue still drains
/// already-enqueued elements, then `pop` returns nullopt. Threads fed by a
/// queue exit when it is closed and drained, never by being killed.
template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Returns false if the queue is closed (element is dropped).
  bool push(T value) {
    {
      std::scoped_lock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an element is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Close the queue: producers fail fast, consumers drain then see nullopt.
  void close() {
    {
      std::scoped_lock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace xt
