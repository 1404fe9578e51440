#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace xt {

/// One completed span of a message's lifecycle (or of a workhorse phase).
/// `name` and `category` must be string literals (spans are stored by
/// pointer in a fixed ring buffer; no per-span allocation).
struct TraceSpan {
  const char* name = "";
  const char* category = "";
  std::uint64_t trace_id = 0;  ///< message id stitching hops together (0 = none)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t pid = 0;       ///< logical process group (simulated machine)
  std::uint64_t tid = 0;       ///< recording thread (see trace_thread_id())
  std::uint64_t bytes = 0;     ///< payload size where meaningful
};

/// Stable per-thread key for span tracks.
[[nodiscard]] std::uint64_t trace_thread_id();

/// Ring-buffered collector for message-lifecycle spans.
///
/// Disabled (the default) it records nothing: the hot-path guard is a single
/// relaxed atomic load, callers skip their clock reads entirely. Enabled, a
/// record is one mutex-protected slot write into a preallocated ring — old
/// spans are overwritten once `capacity` is exceeded, so memory stays
/// bounded on arbitrarily long runs.
class TraceCollector {
 public:
  explicit TraceCollector(std::size_t capacity = kDefaultCapacity);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record a completed span; no-op when disabled. Also captures the calling
  /// thread's name (from set_current_thread_name) the first time each thread
  /// records, for the exporter's per-thread tracks.
  void record(const TraceSpan& span);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Spans currently held (<= capacity()).
  [[nodiscard]] std::size_t size() const;
  /// Spans ever recorded, including those the ring has overwritten.
  [[nodiscard]] std::uint64_t total_recorded() const;

  /// Copy of the held spans in recording order (oldest first).
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;
  /// (tid, thread name) pairs seen so far.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>> thread_names() const;

  void clear();

 private:
  std::atomic<bool> enabled_{false};
  const std::size_t capacity_;

  mutable std::mutex mu_;
  std::vector<TraceSpan> ring_;
  std::size_t next_ = 0;        ///< ring_[next_ % capacity_] is written next
  std::uint64_t recorded_ = 0;  ///< total record() calls while enabled
  std::vector<std::pair<std::uint64_t, std::string>> threads_;
};

/// RAII span: samples the clock only when the collector is enabled, records
/// on destruction (or finish()). Pass nullptr to compile the whole scope
/// down to a pointer test.
class TraceScope {
 public:
  TraceScope(TraceCollector* collector, const char* name, const char* category,
             std::uint64_t trace_id, std::uint32_t pid, std::uint64_t bytes = 0)
      : collector_(collector != nullptr && collector->enabled() ? collector
                                                                : nullptr) {
    if (collector_ == nullptr) return;
    span_.name = name;
    span_.category = category;
    span_.trace_id = trace_id;
    span_.pid = pid;
    span_.bytes = bytes;
    span_.tid = trace_thread_id();
    span_.start_ns = now_ns();
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() { finish(); }

  void set_bytes(std::uint64_t bytes) {
    if (collector_ != nullptr) span_.bytes = bytes;
  }

  void finish() {
    if (collector_ == nullptr) return;
    span_.dur_ns = now_ns() - span_.start_ns;
    collector_->record(span_);
    collector_ = nullptr;
  }

 private:
  TraceCollector* collector_;
  TraceSpan span_{};
};

}  // namespace xt
