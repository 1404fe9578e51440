#include "comm/overload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "comm/broker.h"
#include "comm/message.h"
#include "netsim/paced_pipe.h"
#include "netsim/reliable_link.h"
#include "obs/metrics.h"

namespace xt {
namespace {

constexpr TrafficClass kCtl = TrafficClass::kControl;
constexpr TrafficClass kWts = TrafficClass::kWeights;
constexpr TrafficClass kExp = TrafficClass::kExperience;

OverloadConfig bounded_cfg(std::size_t high, std::size_t low = 0,
                           ShedPolicy policy = ShedPolicy::kOldest) {
  OverloadConfig cfg;
  cfg.high_watermark = high;
  cfg.low_watermark = low;
  cfg.shed_policy = policy;
  return cfg;
}

TEST(OverloadConfig, DefaultIsUnboundedAndLowResolvesToHalfHigh) {
  OverloadConfig cfg;
  EXPECT_FALSE(cfg.bounded());
  cfg.high_watermark = 64;
  EXPECT_TRUE(cfg.bounded());
  EXPECT_EQ(cfg.resolved_low(), 32u);
  cfg.low_watermark = 10;
  EXPECT_EQ(cfg.resolved_low(), 10u);
}

TEST(ClassedQueue, PopDrainsControlBeforeWeightsBeforeExperience) {
  ClassedQueue<int> q;
  EXPECT_EQ(q.push(kExp, 30), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kWts, 20), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kCtl, 10), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kExp, 31), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kCtl, 11), PushResult::kEnqueued);
  // Priority order across lanes, FIFO within a lane.
  EXPECT_EQ(q.try_pop().value(), 10);
  EXPECT_EQ(q.try_pop().value(), 11);
  EXPECT_EQ(q.try_pop().value(), 20);
  EXPECT_EQ(q.try_pop().value(), 30);
  EXPECT_EQ(q.try_pop().value(), 31);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(ClassedQueue, UnboundedQueueNeverSheds) {
  ClassedQueue<int> q;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(q.push(kExp, i), PushResult::kEnqueued);
  }
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_EQ(q.sheds(kExp), 0u);
}

TEST(ClassedQueue, ExperienceShedsOldestAtHighWatermark) {
  std::vector<int> shed;
  ClassedQueue<int> q(bounded_cfg(2),
                      [&](TrafficClass cls, int&& v) {
                        EXPECT_EQ(cls, kExp);
                        shed.push_back(v);
                      });
  EXPECT_EQ(q.push(kExp, 1), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kExp, 2), PushResult::kEnqueued);
  // At the watermark: the incoming element is admitted, the oldest queued
  // experience is displaced through the shed callback.
  EXPECT_EQ(q.push(kExp, 3), PushResult::kEnqueued);
  EXPECT_EQ(shed, std::vector<int>({1}));
  EXPECT_EQ(q.sheds(kExp), 1u);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_EQ(q.try_pop().value(), 3);
}

TEST(ClassedQueue, ExperienceShedsNewestWhenPolicyIsNewest) {
  std::vector<int> shed;
  ClassedQueue<int> q(bounded_cfg(2, 0, ShedPolicy::kNewest),
                      [&](TrafficClass, int&& v) { shed.push_back(v); });
  EXPECT_EQ(q.push(kExp, 1), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kExp, 2), PushResult::kEnqueued);
  // kNewest keeps what is queued and drops the incoming element instead.
  EXPECT_EQ(q.push(kExp, 3), PushResult::kShed);
  EXPECT_EQ(shed, std::vector<int>({3}));
  EXPECT_EQ(q.sheds(kExp), 1u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
}

TEST(ClassedQueue, PinnedItemsAreNeverShedNorDisplaced) {
  // Negative values are pinned, as the broker pins every chunk header after
  // a body's first.
  std::vector<int> shed;
  ClassedQueue<int> q(
      bounded_cfg(2), [&](TrafficClass, int&& v) { shed.push_back(v); },
      [](const int& v) { return v < 0; });
  EXPECT_EQ(q.push(kExp, -1), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kExp, 2), PushResult::kEnqueued);
  // At the watermark: a pinned push soft-overflows it...
  EXPECT_EQ(q.push(kExp, -3), PushResult::kEnqueued);
  // ...and kOldest displaces the oldest item that is not pinned.
  EXPECT_EQ(q.push(kExp, 4), PushResult::kEnqueued);
  EXPECT_EQ(shed, std::vector<int>({2}));
  // Pinned items stay at the front; 4 is now the oldest it may displace.
  EXPECT_EQ(q.push(kExp, 5), PushResult::kEnqueued);
  EXPECT_EQ(shed, std::vector<int>({2, 4}));
  // With only pinned items queued, the incoming item is shed, and weights
  // soft-overflow.
  ClassedQueue<int> pinned_only(
      bounded_cfg(1), [&](TrafficClass, int&& v) { shed.push_back(v); },
      [](const int& v) { return v < 0; });
  EXPECT_EQ(pinned_only.push(kExp, -1), PushResult::kEnqueued);
  EXPECT_EQ(pinned_only.push(kExp, 6), PushResult::kShed);
  EXPECT_EQ(pinned_only.push(kWts, 7), PushResult::kEnqueued);
  EXPECT_EQ(shed, std::vector<int>({2, 4, 6}));
  EXPECT_EQ(q.try_pop().value(), -1);
  EXPECT_EQ(q.try_pop().value(), -3);
  EXPECT_EQ(q.try_pop().value(), 5);
}

TEST(ClassedQueue, ControlLaneIsNeverBounded) {
  ClassedQueue<int> q(bounded_cfg(1));
  EXPECT_EQ(q.push(kExp, 0), PushResult::kEnqueued);  // data plane now full
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(q.push(kCtl, i), PushResult::kEnqueued);
  }
  EXPECT_EQ(q.size(kCtl), 100u);
  EXPECT_EQ(q.sheds(kExp), 0u);
}

TEST(ClassedQueue, WeightsEvictQueuedExperienceInsteadOfDropping) {
  std::vector<int> shed;
  ClassedQueue<int> q(bounded_cfg(2),
                      [&](TrafficClass cls, int&& v) {
                        EXPECT_EQ(cls, kExp);
                        shed.push_back(v);
                      });
  EXPECT_EQ(q.push(kExp, 1), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kExp, 2), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kWts, 100), PushResult::kEnqueued);
  EXPECT_EQ(shed, std::vector<int>({1}));
  // The weights element is also first out: priority, not just admission.
  EXPECT_EQ(q.try_pop().value(), 100);
  EXPECT_EQ(q.try_pop().value(), 2);
}

TEST(ClassedQueue, WeightsSoftOverflowWhenNoExperienceToEvict) {
  ClassedQueue<int> q(bounded_cfg(2));
  EXPECT_EQ(q.push(kWts, 1), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kWts, 2), PushResult::kEnqueued);
  // Weights are never dropped: with no experience to evict the data plane
  // soft-overflows its watermark instead.
  EXPECT_EQ(q.push(kWts, 3), PushResult::kEnqueued);
  EXPECT_EQ(q.size(kWts), 3u);
  EXPECT_EQ(q.sheds(kExp), 0u);
}

TEST(ClassedQueue, ShedCallbackRunsOutsideTheQueueLock) {
  // The callback re-enters the queue's own locked accessors; this deadlocks
  // (and times out the test) if sheds were dispatched under the lock.
  std::atomic<std::size_t> observed{0};
  ClassedQueue<int> q(bounded_cfg(1, 0, ShedPolicy::kNewest),
                      [&](TrafficClass, int&&) { observed.store(q.size()); });
  EXPECT_EQ(q.push(kExp, 1), PushResult::kEnqueued);
  EXPECT_EQ(q.push(kExp, 2), PushResult::kShed);
  EXPECT_EQ(observed.load(), 1u);
}

TEST(ClassedQueue, GatedExperienceBlocksUntilLowWatermark) {
  ClassedQueue<int> q(bounded_cfg(4, 2));
  for (int i = 0; i < 4; ++i) ASSERT_EQ(q.push(kExp, i), PushResult::kEnqueued);
  std::atomic<bool> admitted{false};
  std::atomic<int> waits{0};
  std::thread producer([&] {
    EXPECT_TRUE(q.push_gated(kExp, 99, [&] { waits.fetch_add(1); }));
    admitted.store(true);
  });
  // Popping one element leaves depth 3 >= low watermark 2: a producer that
  // already waited keeps waiting (hysteresis, no thrash at the boundary).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  (void)q.try_pop();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  // Draining below the low watermark releases the credit gate.
  (void)q.try_pop();
  (void)q.try_pop();
  producer.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_GT(waits.load(), 0);  // on_wait kept firing while blocked
  EXPECT_EQ(q.sheds(kExp), 0u);
}

TEST(ClassedQueue, GatedWeightsFallBackToEvictionAfterDeadline) {
  OverloadConfig cfg = bounded_cfg(1);
  cfg.weights_block_ms = 20;
  std::vector<int> shed;
  ClassedQueue<int> q(cfg, [&](TrafficClass, int&& v) { shed.push_back(v); });
  ASSERT_EQ(q.push(kExp, 7), PushResult::kEnqueued);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(q.push_gated(kWts, 100));
  const auto waited = std::chrono::steady_clock::now() - start;
  // Waited out the deadline, then evicted the queued experience: weights
  // land late but never drop.
  EXPECT_GE(waited, std::chrono::milliseconds(15));
  EXPECT_EQ(shed, std::vector<int>({7}));
  EXPECT_EQ(q.try_pop().value(), 100);
}

TEST(ClassedQueue, GatedControlNeverBlocks) {
  ClassedQueue<int> q(bounded_cfg(1));
  ASSERT_EQ(q.push(kExp, 0), PushResult::kEnqueued);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(q.push_gated(kCtl, 1));
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
  EXPECT_EQ(q.try_pop().value(), 1);  // and it still jumps the queue
}

TEST(ClassedQueue, CloseWakesGatedProducerAndFailsThePush) {
  ClassedQueue<int> q(bounded_cfg(1));
  ASSERT_EQ(q.push(kExp, 0), PushResult::kEnqueued);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.push_gated(kExp, 1));
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(done.load());
  q.close();
  producer.join();
  EXPECT_TRUE(done.load());
}

TEST(ClassedQueue, PushOnClosedQueueReportsClosedWithoutShedCallback) {
  std::atomic<int> callbacks{0};
  ClassedQueue<int> q(bounded_cfg(1),
                      [&](TrafficClass, int&&) { callbacks.fetch_add(1); });
  q.close();
  // kClosed means the ShedFn was NOT invoked: the caller balances its own
  // resources, exactly like BlockingQueue::push returning false.
  EXPECT_EQ(q.push(kExp, 1), PushResult::kClosed);
  EXPECT_EQ(q.push(kCtl, 2), PushResult::kClosed);
  EXPECT_EQ(callbacks.load(), 0);
  EXPECT_EQ(q.sheds(kExp), 0u);
}

TEST(ClassedQueue, CloseDrainsAllLanesInPriorityOrderThenReportsEnd) {
  ClassedQueue<int> q;
  (void)q.push(kExp, 30);
  (void)q.push(kCtl, 10);
  (void)q.push(kWts, 20);
  q.close();
  EXPECT_EQ(q.pop().value(), 10);
  EXPECT_EQ(q.pop().value(), 20);
  EXPECT_EQ(q.pop().value(), 30);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(1)).has_value());
}

TEST(ClassedQueue, PopForTimesOutOnEmptyOpenQueue) {
  ClassedQueue<int> q;
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(5)).has_value());
  EXPECT_FALSE(q.closed());
}

// ---------------------------------------------------------------------------
// Circuit breaker (ReliableChannel over a 100%-lossy pipe: every frame is
// dropped on the wire, so every send ends in a retransmit give-up).
// ---------------------------------------------------------------------------

struct BreakerHarness {
  explicit BreakerHarness(std::uint32_t breaker_failures,
                          double breaker_probe_ms) {
    LinkConfig link{1e12, 0, 0};
    link.faults.drop_probability = 1.0;  // nothing ever reaches the far side
    pipe = std::make_unique<PacedPipe>("breaker-test", link);

    ReliabilityConfig cfg;
    cfg.enabled = true;
    cfg.rto_ms = 1.0;
    cfg.backoff = 1.0;
    cfg.max_rto_ms = 1.0;
    cfg.max_retries = 0;  // one lost transmission = one give-up
    cfg.breaker_failures = breaker_failures;
    cfg.breaker_probe_ms = breaker_probe_ms;

    shed_counter = &metrics.counter("breaker_shed");
    ReliableChannel::Instruments inst;
    inst.give_ups = &metrics.counter("give_ups");
    inst.link_state = &metrics.gauge("link_state");
    inst.breaker_opens = &metrics.counter("breaker_opens");
    inst.breaker_shed = shed_counter;
    channel = std::make_unique<ReliableChannel>("breaker-test", cfg, *pipe,
                                                broker, inst);
    channel->set_ack_sender([](std::uint64_t) {});
  }

  ~BreakerHarness() {
    channel->stop();
    pipe->stop();
  }

  void send(MsgType type) {
    channel->send(
        make_outbound(explorer_id(1, 0), {learner_id(0)}, type, empty_payload())
            .header,
        empty_payload());
  }

  /// Spin until `done` or a 5 s deadline (the breaker runs on 1 ms RTOs).
  static bool wait_for(const std::function<bool()>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
  }

  [[nodiscard]] std::uint64_t shed() const {
    return static_cast<std::uint64_t>(shed_counter->value());
  }

  Counter* shed_counter = nullptr;
  MetricsRegistry metrics;
  Broker broker{0};
  std::unique_ptr<PacedPipe> pipe;
  std::unique_ptr<ReliableChannel> channel;
};

TEST(CircuitBreaker, OpensAfterConsecutiveGiveUps) {
  BreakerHarness h(/*breaker_failures=*/2, /*breaker_probe_ms=*/10'000);
  h.send(MsgType::kRollout);
  h.send(MsgType::kRollout);
  ASSERT_TRUE(h.wait_for([&] { return h.channel->state() == LinkState::kOpen; }))
      << "breaker never opened; give_ups=" << h.channel->give_ups();
  EXPECT_EQ(h.channel->breaker_opens(), 1u);
  EXPECT_GE(h.channel->give_ups(), 2u);
}

TEST(CircuitBreaker, OpenBreakerShedsExperienceButAdmitsControl) {
  BreakerHarness h(2, 10'000);
  h.send(MsgType::kRollout);
  h.send(MsgType::kRollout);
  ASSERT_TRUE(h.wait_for([&] { return h.channel->state() == LinkState::kOpen; }));
  const std::uint64_t shed_before = h.shed();
  h.send(MsgType::kRollout);  // experience: shed at the breaker
  EXPECT_EQ(h.shed(), shed_before + 1);
  EXPECT_EQ(h.channel->state(), LinkState::kOpen);
  h.send(MsgType::kHeartbeat);  // control: flows through as a natural probe
  EXPECT_EQ(h.shed(), shed_before + 1);
}

TEST(CircuitBreaker, AckFromFarSideClosesTheBreaker) {
  BreakerHarness h(2, 10'000);
  h.send(MsgType::kRollout);
  h.send(MsgType::kRollout);
  ASSERT_TRUE(h.wait_for([&] { return h.channel->state() == LinkState::kOpen; }));
  // Any ack is proof the link works again, whatever state the breaker is in.
  h.channel->on_ack(9999);
  EXPECT_EQ(h.channel->state(), LinkState::kClosed);
  // Traffic is admitted again (tracked as pending, not shed).
  const std::uint64_t shed_before = h.shed();
  h.send(MsgType::kRollout);
  EXPECT_EQ(h.shed(), shed_before);
}

TEST(CircuitBreaker, FailedHalfOpenProbeReopensTheBreaker) {
  BreakerHarness h(2, /*breaker_probe_ms=*/20);
  h.send(MsgType::kRollout);
  h.send(MsgType::kRollout);
  ASSERT_TRUE(h.wait_for([&] { return h.channel->state() == LinkState::kOpen; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Past the probe deadline the next non-control frame is admitted as the
  // half-open probe (not shed) — and its give-up re-trips the breaker.
  const std::uint64_t shed_before = h.shed();
  h.send(MsgType::kRollout);
  EXPECT_EQ(h.shed(), shed_before);
  ASSERT_TRUE(h.wait_for([&] { return h.channel->breaker_opens() >= 2; }))
      << "failed probe did not re-trip; state="
      << link_state_name(h.channel->state());
}

TEST(CircuitBreaker, DisabledBreakerNeverTrips) {
  BreakerHarness h(/*breaker_failures=*/0, 10'000);
  for (int i = 0; i < 4; ++i) h.send(MsgType::kRollout);
  ASSERT_TRUE(h.wait_for([&] { return h.channel->give_ups() >= 4; }));
  EXPECT_EQ(h.channel->state(), LinkState::kClosed);
  EXPECT_EQ(h.channel->breaker_opens(), 0u);
  EXPECT_EQ(h.shed(), 0u);
}

}  // namespace
}  // namespace xt
