#include "common/clock.h"

#include <cmath>
#include <thread>

namespace xt {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t transfer_ns(std::uint64_t bytes, double bytes_per_sec) {
  if (bytes_per_sec <= 0.0) return 0;
  return std::llround(static_cast<double>(bytes) / bytes_per_sec * 1e9);
}

void wait_until(std::int64_t deadline_ns, Wake wake) {
  // Under 20 us no timer keeps the deadline; the pacer carries the time.
  const std::int64_t left_ns = deadline_ns - now_ns();
  if (left_ns < 20'000) return;
  if (wake == Wake::kPlain) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left_ns));
    return;
  }
  // Sleep to 200 us short of the deadline, then yield out the tail.
  std::this_thread::sleep_for(std::chrono::nanoseconds(left_ns - 200'000));
  while (now_ns() < deadline_ns) std::this_thread::yield();
}

}  // namespace xt
