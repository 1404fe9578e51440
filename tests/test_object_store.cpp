#include "comm/object_store.h"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "obs/catalog.h"

namespace xt {
namespace {

Payload payload_of(std::initializer_list<std::uint8_t> bytes) {
  return make_payload(Bytes(bytes));
}

TEST(ObjectStore, PutThenFetchReturnsSameBytes) {
  ObjectStore store;
  const auto id = store.put(payload_of({1, 2, 3}), 1);
  const Payload fetched = store.fetch(id);
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(*fetched, (Bytes{1, 2, 3}));
}

TEST(ObjectStore, FetchIsZeroCopy) {
  ObjectStore store;
  const Payload original = payload_of({9});
  const auto id = store.put(original, 1);
  const Payload fetched = store.fetch(id);
  EXPECT_EQ(fetched.get(), original.get());  // same underlying allocation
}

TEST(ObjectStore, EntryDisappearsAfterLastFetch) {
  ObjectStore store;
  const auto id = store.put(payload_of({1}), 2);
  EXPECT_EQ(store.live_objects(), 1u);
  ASSERT_NE(store.fetch(id), nullptr);
  EXPECT_EQ(store.live_objects(), 1u);  // one claim left
  ASSERT_NE(store.fetch(id), nullptr);
  EXPECT_EQ(store.live_objects(), 0u);
  EXPECT_EQ(store.fetch(id), nullptr);  // fully consumed
}

TEST(ObjectStore, BroadcastKeepsSingleCopyAlive) {
  ObjectStore store;
  const Payload big = make_payload(Bytes(1'000, 7));
  const auto id = store.put(big, 4);
  EXPECT_EQ(store.live_bytes(), 1'000u);  // one copy despite 4 destinations
  for (int i = 0; i < 4; ++i) ASSERT_NE(store.fetch(id), nullptr);
  EXPECT_EQ(store.live_bytes(), 0u);
}

TEST(ObjectStore, DroppedClaimFreesTheBodyWithoutAFetch) {
  MetricsRegistry metrics;
  ObjectStore store(metrics, 3);
  {
    const StoreClaim claim = store.hold(payload_of({1, 2}));
    const StoreClaim share = claim.share();
    EXPECT_EQ(store.live_objects(), 1u);
  }
  EXPECT_EQ(store.live_objects(), 0u);
  EXPECT_EQ(store.live_bytes(), 0u);
  // The store's own series: one put of 2 bytes, no fetch, nothing resident.
  const std::vector<std::pair<std::string, std::uint64_t>> counters = {
      {R"(xt_store_fetches_total{machine="3"})", 0},
      {R"(xt_store_put_bytes_total{machine="3"})", 2},
      {R"(xt_store_puts_total{machine="3"})", 1}};
  EXPECT_EQ(metrics.counters(), counters);
  EXPECT_EQ(metrics.series().size(), 4u);  // and one gauge
  const auto live = metrics.series(&metric::xt_store_live_bytes);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0]->name, R"(xt_store_live_bytes{machine="3"})");
  EXPECT_EQ(live[0]->gauge->value(), 0.0);
}

TEST(ObjectStore, EmptyClaimHoldsNothing) {
  ObjectStore store;
  const StoreClaim kept = store.hold(payload_of({1}));
  {
    StoreClaim empty;
    EXPECT_EQ(empty.peek(), nullptr);
    EXPECT_EQ(empty.share().peek(), nullptr);
    EXPECT_EQ(empty.fetch(), nullptr);
  }
  EXPECT_EQ(store.live_objects(), 1u);
}

TEST(ObjectStore, EntryLeavesWithItsLastClaim) {
  MetricsRegistry metrics;
  ObjectStore store(metrics, 0);
  const Payload original = payload_of({4, 2});
  StoreClaim first = store.hold(original);
  std::optional<StoreClaim> second(first.share());
  const Payload fetched = first.fetch();
  EXPECT_EQ(fetched.get(), original.get());
  EXPECT_EQ(first.fetch(), nullptr);  // spent
  EXPECT_EQ(store.live_objects(), 1u);  // the share still holds it
  EXPECT_EQ(second->peek().get(), original.get());
  second.reset();
  EXPECT_EQ(store.live_objects(), 0u);
  EXPECT_EQ(metrics.total(metric::xt_store_fetches_total), 1u);
}

TEST(ObjectStore, MovedFromClaimReleasesNothing) {
  ObjectStore store;
  StoreClaim source = store.hold(payload_of({7}));
  StoreClaim moved(std::move(source));
  source = StoreClaim();  // NOLINT(bugprone-use-after-move): resets it
  EXPECT_EQ(store.live_objects(), 1u);
  StoreClaim other = store.hold(payload_of({8}));
  other = std::move(moved);  // the body `other` held goes with its claim
  EXPECT_EQ(store.live_objects(), 1u);
  EXPECT_EQ(moved.peek(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(*other.fetch(), (Bytes{7}));
  EXPECT_EQ(store.live_objects(), 0u);
}

TEST(ObjectStore, SharesFetchedOnManyThreadsFreeTheBodyOnce) {
  ObjectStore store;
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> fetched{0};
  for (int round = 0; round < kRounds; ++round) {
    StoreClaim claim = store.hold(payload_of({5}));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([share = claim.share(), &fetched]() mutable {
        if (share.fetch() != nullptr) fetched.fetch_add(1);
      });
    }
    claim = StoreClaim();
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(store.live_objects(), 0u);
  }
  EXPECT_EQ(fetched.load(), kThreads * kRounds);
}

TEST(ObjectStore, FetchUnknownIdReturnsNull) {
  ObjectStore store;
  EXPECT_EQ(store.fetch(42), nullptr);
}

TEST(ObjectStore, IdsAreUnique) {
  ObjectStore store;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(store.put(payload_of({1}), 1));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(ObjectStore, LiveBytesTracksSizes) {
  ObjectStore store;
  const auto a = store.put(make_payload(Bytes(100, 1)), 1);
  const auto b = store.put(make_payload(Bytes(50, 2)), 1);
  EXPECT_EQ(store.live_bytes(), 150u);
  (void)store.fetch(a);
  EXPECT_EQ(store.live_bytes(), 50u);
  (void)store.fetch(b);
  EXPECT_EQ(store.live_bytes(), 0u);
}

TEST(ObjectStore, ConcurrentPutAndFetch) {
  ObjectStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  std::atomic<int> fetched{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto id =
            store.put(make_payload(Bytes{static_cast<std::uint8_t>(t)}), 1);
        const Payload p = store.fetch(id);
        if (p && p->front() == static_cast<std::uint8_t>(t)) {
          fetched.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(fetched.load(), kThreads * kPerThread);
  EXPECT_EQ(store.live_objects(), 0u);
}

}  // namespace
}  // namespace xt
