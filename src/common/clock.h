#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace xt {

/// Monotonic time since an arbitrary epoch, in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// Convenience conversions.
[[nodiscard]] inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
[[nodiscard]] inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Simple RAII-free stopwatch for latency measurements.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}

  void reset() { start_ = now_ns(); }

  [[nodiscard]] std::int64_t elapsed_ns() const { return now_ns() - start_; }
  [[nodiscard]] double elapsed_ms() const { return ns_to_ms(elapsed_ns()); }
  [[nodiscard]] double elapsed_s() const { return ns_to_s(elapsed_ns()); }

 private:
  std::int64_t start_;
};

/// Nanoseconds `bytes` take at `bytes_per_sec`; a rate <= 0 is unpaced (0 ns).
[[nodiscard]] std::int64_t transfer_ns(std::uint64_t bytes, double bytes_per_sec);

/// One paced resource, owned by one thread: it knows when the work queued on
/// it ends. A piece of work starts when the resource frees or when the piece
/// became ready, whichever is later, never when a thread woke, so what a
/// thread does between its waits never adds to the resource's time.
class Pacer {
 public:
  /// Queues `cost_ns` of work ready at `ready_ns`; returns when it ends.
  std::int64_t add(std::int64_t ready_ns, std::int64_t cost_ns) {
    return end_ns_ = std::max(ready_ns, end_ns_) + cost_ns;
  }
  [[nodiscard]] std::int64_t end_ns() const { return end_ns_; }

 private:
  std::int64_t end_ns_ = 0;
};

/// How a modeled wait ends; the call site picks by who sees the end.
enum class Wake : std::uint8_t {
  kPlain,    ///< more work is queued behind it: a late wake costs nothing
  kPrecise,  ///< something downstream sees the end at once: a 200 us yield tail
};

/// The one wait for a modeled cost: blocks until now_ns() reaches
/// `deadline_ns`. A wait under 20 us returns at once; the pacer that set the
/// deadline keeps its time, so the next piece starts after it.
void wait_until(std::int64_t deadline_ns, Wake wake);

}  // namespace xt
