#include "common/blocking_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace xt {
namespace {

TEST(BlockingQueue, PushPopPreservesFifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BlockingQueue, SizeAndEmptyTrackContents) {
  BlockingQueue<std::string> q;
  EXPECT_EQ(q.size(), 0u);
  q.push("a");
  q.push("b");
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(BlockingQueue, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread consumer([&] {
    const auto result = q.pop();
    EXPECT_FALSE(result.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  consumer.join();
}

TEST(BlockingQueue, ClosedQueueRejectsPush) {
  BlockingQueue<int> q;
  q.close();
  EXPECT_FALSE(q.push(1));
}

TEST(BlockingQueue, ClosedQueueDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, MoveOnlyTypesPassThrough) {
  BlockingQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(7));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

TEST(BlockingQueue, ManyProducersManyConsumersDeliverEverythingOnce) {
  BlockingQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 2'000;
  std::atomic<long long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; ++i) q.push(p * kItemsEach + i);
    });
  }
  for (auto& t : producers) t.join();
  // Consumers drain what is left, then see the close and exit.
  q.close();
  for (auto& t : consumers) t.join();

  const long long n = kProducers * kItemsEach;
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BlockingQueue, ConcurrentConsumerSeesFifoOrder) {
  BlockingQueue<int> q;
  constexpr int kItems = 5'000;
  std::thread consumer([&] {
    for (int i = 0; i < kItems; ++i) {
      auto v = q.pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
  });
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.push(i));
  consumer.join();
}

}  // namespace
}  // namespace xt
