#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "comm/message.h"

namespace xt {

/// What to do with experience-class traffic when a bounded queue hits its
/// high watermark.
enum class ShedPolicy : std::uint8_t {
  kOldest = 0,  ///< drop the oldest queued experience to admit the new one
  kNewest = 1,  ///< drop the incoming experience, keep what is queued
};

[[nodiscard]] constexpr const char* shed_policy_name(ShedPolicy p) {
  return p == ShedPolicy::kOldest ? "oldest" : "newest";
}

/// Overload policy shared by every bounded comm queue (DESIGN.md §10).
/// `high_watermark == 0` keeps historical behaviour: unbounded queues, no
/// shedding, no credit gate, breaker disabled — overload handling is strictly
/// opt-in so existing configs and tests are bit-identical.
struct OverloadConfig {
  /// Data-plane (weights + experience) depth at which shedding starts.
  std::size_t high_watermark = 0;
  /// Depth the credit gate waits for before re-admitting producers
  /// (hysteresis). 0 means half the high watermark.
  std::size_t low_watermark = 0;
  ShedPolicy shed_policy = ShedPolicy::kOldest;
  /// How long a weights-class push may wait for drainage before falling back
  /// to shed-experience-to-make-room. Weights are never dropped.
  std::uint32_t weights_block_ms = 100;
  /// Consecutive retransmit give-ups that open a link's circuit breaker.
  std::uint32_t breaker_failures = 3;
  /// How long an open breaker waits before letting a half-open probe through.
  std::uint32_t breaker_probe_ms = 250;

  [[nodiscard]] bool bounded() const { return high_watermark != 0; }
  [[nodiscard]] std::size_t resolved_low() const {
    if (low_watermark != 0) return low_watermark;
    return high_watermark > 1 ? high_watermark / 2 : high_watermark;
  }
};

[[nodiscard]] constexpr std::size_t lane_index(TrafficClass cls) {
  return static_cast<std::size_t>(cls);
}

/// Outcome of a policy push. Callers that own external resources per item
/// (the broker's store references) need to distinguish "the queue shed it —
/// the shed callback already cleaned up" from "the queue is closed — clean
/// up yourself", exactly like BlockingQueue::push returning false.
enum class PushResult : std::uint8_t {
  kEnqueued = 0,
  kShed = 1,    ///< displaced per policy; ShedFn was invoked with the item
  kClosed = 2,  ///< queue closed; ShedFn NOT invoked, caller balances
};

/// Priority queue with one lane per traffic class and a bounded data plane.
///
/// Consumers always drain control before weights before experience, so a
/// heartbeat enqueued behind ten thousand rollouts is still the next thing a
/// router thread sees. Producers go through one of two doors:
///
///  - `push` applies the overload policy without blocking: control is always
///    admitted (the control lane is unbounded — it is tiny by construction),
///    weights shed queued experience to make room (soft-overflowing if there
///    is none; weights are never dropped), experience is shed per
///    `ShedPolicy`. Router and retransmit threads use this door: they must
///    never stall on a slow peer.
///  - `push_gated` is the producer-side credit gate: experience blocks until
///    the data plane drains below the low watermark (invoking `on_wait`
///    periodically so the caller can keep heartbeating), weights wait up to
///    `weights_block_ms` then fall back to the `push` policy. Workhorse send
///    paths use this door — it is how backpressure reaches the explorer.
///
/// Every shed item is handed to the `ShedFn` so the owner can release
/// object-store references and bump `xt_messages_shed_total`. The callback
/// runs outside the queue lock. Items the `PinFn` names are never shed or
/// displaced; they soft-overflow the watermark like weights. The broker pins
/// each chunk header after a body's first, because a message whose first
/// chunk was admitted is committed to the rest. Items rejected because the
/// queue is *closed* do not go through the callback — that mirrors
/// `BlockingQueue::push` returning false, and callers already balance
/// references on that path.
template <typename T>
class ClassedQueue {
 public:
  using ShedFn = std::function<void(TrafficClass, T&&)>;
  using PinFn = std::function<bool(const T&)>;

  explicit ClassedQueue(OverloadConfig cfg = {}, ShedFn on_shed = nullptr,
                        PinFn pinned = nullptr)
      : cfg_(cfg), on_shed_(std::move(on_shed)), pinned_(std::move(pinned)) {}

  ClassedQueue(const ClassedQueue&) = delete;
  ClassedQueue& operator=(const ClassedQueue&) = delete;

  /// Policy push (never blocks); see PushResult for the outcome contract.
  PushResult push(TrafficClass cls, T value) {
    std::vector<std::pair<TrafficClass, T>> shed;
    bool admitted = false;
    {
      std::unique_lock lock(mu_);
      if (closed_) return PushResult::kClosed;
      admitted = admit_locked(cls, std::move(value), shed);
    }
    if (admitted) not_empty_.notify_one();
    run_shed_callbacks(shed);
    return admitted ? PushResult::kEnqueued : PushResult::kShed;
  }

  /// Credit-gated push (may block); see class comment. `on_wait` is invoked
  /// roughly every 5ms while blocked.
  bool push_gated(TrafficClass cls, T value,
                  const std::function<void()>& on_wait = nullptr) {
    if (cls == TrafficClass::kControl || !cfg_.bounded()) {
      return push(cls, std::move(value)) == PushResult::kEnqueued;
    }
    constexpr auto kSlice = std::chrono::milliseconds(5);
    std::unique_lock lock(mu_);
    if (cls == TrafficClass::kWeights) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(cfg_.weights_block_ms);
      while (!closed_ && data_size_locked() >= cfg_.high_watermark &&
             std::chrono::steady_clock::now() < deadline) {
        wait_slice(lock, kSlice, on_wait);
      }
      if (closed_) return false;
      std::vector<std::pair<TrafficClass, T>> shed;
      const bool admitted = admit_locked(cls, std::move(value), shed);
      lock.unlock();
      if (admitted) not_empty_.notify_one();
      run_shed_callbacks(shed);
      return admitted;
    }
    // Experience: block until the data plane drains. The first check admits
    // below the high watermark; once we have waited, require the low
    // watermark so a gated producer does not thrash at the boundary.
    bool waited = false;
    while (!closed_) {
      const std::size_t limit =
          waited ? cfg_.resolved_low() : cfg_.high_watermark;
      if (data_size_locked() < limit) break;
      waited = true;
      wait_slice(lock, kSlice, on_wait);
    }
    if (closed_) return false;
    lanes_[lane_index(cls)].push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an element is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !empty_locked(); });
    return pop_locked(lock);
  }

  /// Blocks up to `timeout`; nullopt on timeout or closed-and-drained.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return closed_ || !empty_locked(); })) {
      return std::nullopt;
    }
    return pop_locked(lock);
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::unique_lock lock(mu_);
    if (empty_locked()) return std::nullopt;
    return pop_locked(lock);
  }

  /// Close: producers fail fast, consumers drain all lanes then see nullopt.
  void close() {
    {
      std::scoped_lock lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::scoped_lock lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mu_);
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane.size();
    return n;
  }

  [[nodiscard]] std::size_t size(TrafficClass cls) const {
    std::scoped_lock lock(mu_);
    return lanes_[lane_index(cls)].size();
  }

  /// Items shed from this queue (per class), cumulative.
  [[nodiscard]] std::uint64_t sheds(TrafficClass cls) const {
    std::scoped_lock lock(mu_);
    return sheds_[lane_index(cls)];
  }

  [[nodiscard]] const OverloadConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] bool empty_locked() const {
    for (const auto& lane : lanes_) {
      if (!lane.empty()) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t data_size_locked() const {
    return lanes_[lane_index(TrafficClass::kWeights)].size() +
           lanes_[lane_index(TrafficClass::kExperience)].size();
  }

  /// Apply the overload policy. Returns true iff `value` was enqueued;
  /// anything displaced (possibly `value` itself) lands in `shed`.
  bool admit_locked(TrafficClass cls, T value,
                    std::vector<std::pair<TrafficClass, T>>& shed) {
    auto& lane = lanes_[lane_index(cls)];
    if (cls == TrafficClass::kControl || !cfg_.bounded() ||
        data_size_locked() < cfg_.high_watermark || (pinned_ && pinned_(value))) {
      lane.push_back(std::move(value));
      return true;
    }
    auto& experience = lanes_[lane_index(TrafficClass::kExperience)];
    if (cls == TrafficClass::kWeights) {
      // Weights are never dropped: evict queued experience to make room, or
      // soft-overflow the watermark when there is none to evict.
      shed_oldest_locked(experience, shed);
      lane.push_back(std::move(value));
      return true;
    }
    // Experience at the watermark: shed per policy.
    if (cfg_.shed_policy == ShedPolicy::kOldest &&
        shed_oldest_locked(experience, shed)) {
      lane.push_back(std::move(value));
      return true;
    }
    sheds_[lane_index(TrafficClass::kExperience)]++;
    shed.emplace_back(TrafficClass::kExperience, std::move(value));
    return false;
  }

  /// Sheds the oldest queued experience that is not pinned; false when
  /// there is none.
  bool shed_oldest_locked(std::deque<T>& experience,
                          std::vector<std::pair<TrafficClass, T>>& shed) {
    auto it = experience.begin();
    if (pinned_) it = std::find_if_not(it, experience.end(), pinned_);
    if (it == experience.end()) return false;
    sheds_[lane_index(TrafficClass::kExperience)]++;
    shed.emplace_back(TrafficClass::kExperience, std::move(*it));
    experience.erase(it);
    return true;
  }

  void run_shed_callbacks(std::vector<std::pair<TrafficClass, T>>& shed) {
    if (!on_shed_) return;
    for (auto& [cls, item] : shed) on_shed_(cls, std::move(item));
  }

  template <typename Slice>
  void wait_slice(std::unique_lock<std::mutex>& lock, Slice slice,
                  const std::function<void()>& on_wait) {
    not_full_.wait_for(lock, slice);
    if (on_wait) {
      lock.unlock();
      on_wait();
      lock.lock();
    }
  }

  std::optional<T> pop_locked(std::unique_lock<std::mutex>& lock) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      auto& lane = lanes_[i];
      if (lane.empty()) continue;
      T value = std::move(lane.front());
      lane.pop_front();
      const bool wake_producers = cfg_.bounded() && i != 0;
      lock.unlock();
      if (wake_producers) not_full_.notify_all();
      return value;
    }
    return std::nullopt;  // closed and drained
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::array<std::deque<T>, kTrafficClassCount> lanes_;
  std::array<std::uint64_t, kTrafficClassCount> sheds_{};
  const OverloadConfig cfg_;
  const ShedFn on_shed_;
  const PinFn pinned_;
  bool closed_ = false;
};

}  // namespace xt
