#include "common/clock.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace xt {
namespace {

TEST(Clock, Monotonic) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_LE(a, b);
}

TEST(Clock, StopwatchMeasuresElapsed) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double ms = w.elapsed_ms();
  EXPECT_GE(ms, 4.5);
  EXPECT_LT(ms, 100.0);  // generous upper bound for loaded CI machines
}

TEST(Pacer, PiecesEndAtAbsoluteDeadlines) {
  // Ten 2 ms pieces, all ready at once, with 1 ms of work before each wait.
  // Each piece starts when the one before it ends, not when the thread gets
  // back to its wait, so the work hides in the waits: ~20 ms, not 30.
  Pacer pacer;
  const std::int64_t ready_ns = now_ns();
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // the work
    wait_until(pacer.add(ready_ns, 2'000'000), Wake::kPlain);
  }
  const double elapsed_ms = ns_to_ms(now_ns() - ready_ns);
  EXPECT_EQ(pacer.end_ns(), ready_ns + 20'000'000);
  EXPECT_GE(elapsed_ms, 19.9);
  EXPECT_LT(elapsed_ms, 27.0);
}

TEST(Pacer, ShortWaitReturnsAtOnceAndCarriesItsTime) {
  // A wait under 20 us is not slept: a thousand 15 us waits take far less
  // than the 15 ms they would if each were slept out.
  const Stopwatch unslept;
  for (int i = 0; i < 1000; ++i) wait_until(now_ns() + 15'000, Wake::kPrecise);
  EXPECT_LT(unslept.elapsed_ms(), 10.0);

  // Its time stays in the pacer and moves the next piece's start: a thousand
  // 10 us pieces, each ready as the wait before it returns, still take their
  // 10 ms in all.
  Pacer pacer;
  const Stopwatch paced;
  for (int i = 0; i < 1000; ++i) {
    wait_until(pacer.add(now_ns(), 10'000), Wake::kPrecise);
  }
  EXPECT_GE(paced.elapsed_ms(), 9.98);
}

TEST(Pacer, ZeroRateIsUnpaced) {
  EXPECT_EQ(transfer_ns(1'000'000, 1e9), 1'000'000);
  EXPECT_EQ(transfer_ns(1'000'000'000, 0.0), 0);
  Pacer pacer;
  const std::int64_t ready_ns = now_ns();
  EXPECT_EQ(pacer.add(ready_ns, transfer_ns(1'000'000'000, 0.0)), ready_ns);
  const Stopwatch w;
  wait_until(pacer.end_ns(), Wake::kPrecise);
  wait_until(0, Wake::kPlain);
  EXPECT_LT(w.elapsed_ms(), 5.0);
}

TEST(Clock, Conversions) {
  EXPECT_DOUBLE_EQ(ns_to_ms(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(ns_to_s(2'000'000'000), 2.0);
}

TEST(Clock, StopwatchReset) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  w.reset();
  EXPECT_LT(w.elapsed_ms(), 1.0);
}

}  // namespace
}  // namespace xt
