#include "comm/broker.h"
#include "comm/endpoint.h"

#include <gtest/gtest.h>

#include <thread>

namespace xt {
namespace {

Payload bytes_payload(std::size_t n, std::uint8_t fill) {
  return make_payload(Bytes(n, fill));
}

TEST(NodeId, NamesAndPacking) {
  const NodeId e = explorer_id(2, 7);
  EXPECT_EQ(e.name(), "explorer-m2-7");
  EXPECT_EQ(learner_id(1).name(), "learner-m1-0");
  EXPECT_NE(e.packed(), explorer_id(2, 8).packed());
  EXPECT_NE(e.packed(), explorer_id(3, 7).packed());
  EXPECT_EQ(e, explorer_id(2, 7));
}

TEST(BrokerEndpoint, PointToPointDelivery) {
  Broker broker(0);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);

  ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                        MsgType::kRollout, bytes_payload(64, 7))));
  const auto msg = receiver.receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->header.type, MsgType::kRollout);
  EXPECT_EQ(msg->header.src, sender.id());
  EXPECT_EQ(msg->body->size(), 64u);
  EXPECT_EQ(msg->body->front(), 7);
}

TEST(BrokerEndpoint, MessagesArriveInSendOrder) {
  Broker broker(0);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);
  for (std::uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kDummy, bytes_payload(1, i))));
  }
  for (std::uint8_t i = 0; i < 50; ++i) {
    const auto msg = receiver.receive_for(std::chrono::seconds(5));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->body->front(), i);
  }
}

TEST(BrokerEndpoint, BroadcastReachesAllDestinations) {
  Broker broker(0);
  Endpoint learner(learner_id(0), broker);
  std::vector<std::unique_ptr<Endpoint>> explorers;
  std::vector<NodeId> dsts;
  for (std::uint16_t i = 0; i < 5; ++i) {
    explorers.push_back(std::make_unique<Endpoint>(explorer_id(0, i), broker));
    dsts.push_back(explorers.back()->id());
  }
  ASSERT_TRUE(learner.send(make_outbound(learner.id(), dsts, MsgType::kWeights,
                                         bytes_payload(128, 9), /*tag=*/3)));
  for (auto& explorer : explorers) {
    const auto msg = explorer->receive_for(std::chrono::seconds(5));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->header.type, MsgType::kWeights);
    EXPECT_EQ(msg->header.tag, 3u);
    EXPECT_EQ(msg->body->size(), 128u);
  }
  // Broadcast must not leak store entries.
  EXPECT_EQ(broker.store().live_objects(), 0u);
}

TEST(BrokerEndpoint, BroadcastBodyIsShared) {
  Broker broker(0);
  Endpoint learner(learner_id(0), broker);
  Endpoint a(explorer_id(0, 0), broker);
  Endpoint b(explorer_id(0, 1), broker);
  ASSERT_TRUE(learner.send(make_outbound(learner.id(), {a.id(), b.id()},
                                         MsgType::kWeights, bytes_payload(32, 1))));
  const auto ma = a.receive_for(std::chrono::seconds(5));
  const auto mb = b.receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(ma && mb);
  EXPECT_EQ(ma->body.get(), mb->body.get());  // zero-copy sharing
}

TEST(BrokerEndpoint, DeferredProducerRunsOffCallerThread) {
  Broker broker(0);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);
  const auto caller = std::this_thread::get_id();
  std::thread::id producer_thread;
  ASSERT_TRUE(sender.send(make_deferred_outbound(
      sender.id(), {receiver.id()}, MsgType::kRollout, [&] {
        producer_thread = std::this_thread::get_id();
        return Bytes(16, 5);
      })));
  const auto msg = receiver.receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_NE(producer_thread, caller);
  EXPECT_EQ(msg->body->size(), 16u);
}

TEST(BrokerEndpoint, UnknownDestinationIsDroppedAndCounted) {
  Broker broker(0);
  Endpoint sender(explorer_id(0, 0), broker);
  ASSERT_TRUE(sender.send(make_outbound(sender.id(), {learner_id(0)},
                                        MsgType::kDummy, bytes_payload(8, 0))));
  // Wait for the router to process.
  for (int i = 0; i < 100 && broker.dropped_messages() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(broker.dropped_messages(), 1u);
  EXPECT_EQ(broker.store().live_objects(), 0u);  // claim released
  // The drop is attributed to its reason, not just the total.
  EXPECT_EQ(broker.dropped_messages(DropReason::kUnknownDest), 1u);
  EXPECT_EQ(broker.dropped_messages(DropReason::kCrcFail), 0u);
}

TEST(BrokerEndpoint, DeliverRemoteWithoutLocalDestinationStillAcks) {
  // A routing miss is not an integrity failure: retransmitting cannot help,
  // so it is counted as a routing drop, never as a corrupted frame (the
  // reliable link withholds its ack only for those).
  Broker broker(0);
  MessageHeader header;
  header.msg_id = next_message_id();
  header.src = explorer_id(1, 0);
  header.dsts = {learner_id(2)};  // nothing on machine 0
  header.type = MsgType::kDummy;
  header.body_size = 4;
  broker.deliver_remote(header, bytes_payload(4, 9));
  EXPECT_EQ(broker.dropped_messages(DropReason::kNoLocalDest), 1u);
  EXPECT_EQ(broker.dropped_messages(DropReason::kCrcFail), 0u);
  EXPECT_EQ(broker.corrupted_frames(), 0u);
}

TEST(BrokerEndpoint, CompressionAppliedAboveThreshold) {
  Broker::Options options;
  options.compression.threshold_bytes = 1024;
  Broker broker(0, options);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);
  // Highly compressible body, well above the threshold.
  ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                        MsgType::kRollout,
                                        bytes_payload(100'000, 0))));
  const auto msg = receiver.receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->header.compressed);
  EXPECT_LT(msg->header.body_size, 100'000u);      // wire size shrank
  EXPECT_EQ(msg->body->size(), 100'000u);          // restored on receive
  EXPECT_EQ(msg->body->front(), 0);
}

TEST(BrokerEndpoint, LatencyRecorderObservesTransmissions) {
  Broker broker(0);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);
  LatencyRecorder latency;
  receiver.set_latency_recorder(&latency);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kDummy, bytes_payload(8, 0))));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(receiver.receive_for(std::chrono::seconds(5)).has_value());
  }
  EXPECT_EQ(latency.count(), 10u);
  EXPECT_GE(latency.quantile(0.0), 0.0);
}

TEST(BrokerEndpoint, CountersTrackTraffic) {
  Broker broker(0);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kDummy, bytes_payload(100, 1))));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(receiver.receive_for(std::chrono::seconds(5)).has_value());
  }
  // The sender thread counts a message after handing it to the broker, so
  // the receiver can see it first; joining both threads publishes every count.
  sender.stop();
  receiver.stop();
  EXPECT_EQ(sender.counters().messages_sent.load(), 3u);
  EXPECT_EQ(sender.counters().bytes_sent.load(), 300u);
  EXPECT_EQ(receiver.counters().messages_received.load(), 3u);
  EXPECT_EQ(receiver.counters().bytes_received.load(), 300u);
}

TEST(BrokerEndpoint, StopIsIdempotentAndCleansUp) {
  Broker broker(0);
  auto endpoint = std::make_unique<Endpoint>(explorer_id(0, 0), broker);
  endpoint->stop();
  endpoint->stop();
  endpoint.reset();
  broker.stop();
}

TEST(BrokerEndpoint, ManyEndpointsStress) {
  Broker broker(0);
  Endpoint learner(learner_id(0), broker);
  constexpr int kExplorers = 8;
  constexpr int kMessages = 200;
  std::vector<std::unique_ptr<Endpoint>> explorers;
  for (std::uint16_t i = 0; i < kExplorers; ++i) {
    explorers.push_back(std::make_unique<Endpoint>(explorer_id(0, i), broker));
  }
  std::vector<std::thread> senders;
  for (auto& explorer : explorers) {
    senders.emplace_back([&learner, endpoint = explorer.get()] {
      for (int i = 0; i < kMessages; ++i) {
        ASSERT_TRUE(endpoint->send(make_outbound(endpoint->id(), {learner.id()},
                                                 MsgType::kDummy,
                                                 make_payload(Bytes(256, 1)))));
      }
    });
  }
  int received = 0;
  while (received < kExplorers * kMessages) {
    ASSERT_TRUE(learner.receive_for(std::chrono::seconds(10)).has_value());
    ++received;
  }
  for (auto& thread : senders) thread.join();
  EXPECT_EQ(broker.store().live_objects(), 0u);
}

TEST(BrokerEndpoint, DeepCopyAblationStillDelivers) {
  Broker::Options options;
  options.deep_copy_store = true;
  Broker broker(0, options);
  Endpoint learner(learner_id(0), broker);
  Endpoint a(explorer_id(0, 0), broker);
  Endpoint b(explorer_id(0, 1), broker);
  ASSERT_TRUE(learner.send(make_outbound(learner.id(), {a.id(), b.id()},
                                         MsgType::kWeights, bytes_payload(32, 4))));
  const auto ma = a.receive_for(std::chrono::seconds(5));
  const auto mb = b.receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(ma && mb);
  EXPECT_EQ(*ma->body, *mb->body);
  EXPECT_NE(ma->body.get(), mb->body.get());  // copies, not shared
}


TEST(BrokerSharding, SameDestinationOrderingPreservedAcrossShards) {
  Broker::Options options;
  options.router_shards = 4;
  Broker broker(0, options);
  EXPECT_EQ(broker.router_shards(), 4u);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);
  for (std::uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kDummy, bytes_payload(8, 1),
                                          /*tag=*/i)));
  }
  // One destination hashes onto exactly one shard, so its stream stays FIFO
  // no matter how many shards exist.
  for (std::uint32_t i = 0; i < 200; ++i) {
    const auto msg = receiver.receive_for(std::chrono::seconds(5));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->header.tag, i);
  }
}

TEST(BrokerSharding, DeliveredSequencesAreShardCountInvariant) {
  // The same mixed broadcast/point-to-point workload against 1, 2, and 8
  // shards must hand every destination the identical tag sequence: sharding
  // parallelizes unrelated destinations, never reorders one destination's
  // stream or changes what is delivered.
  constexpr std::uint16_t kReceivers = 6;
  constexpr std::uint32_t kMessages = 120;
  auto run = [&](std::uint32_t shards) {
    Broker::Options options;
    options.router_shards = shards;
    Broker broker(0, options);
    Endpoint sender(controller_id(0), broker);
    std::vector<std::unique_ptr<Endpoint>> receivers;
    std::vector<NodeId> all;
    for (std::uint16_t i = 0; i < kReceivers; ++i) {
      receivers.push_back(std::make_unique<Endpoint>(explorer_id(0, i), broker));
      all.push_back(receivers.back()->id());
    }
    std::vector<std::size_t> expected(kReceivers, 0);
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      std::vector<NodeId> dsts;
      if (i % 3 == 0) {
        dsts = all;
        for (auto& n : expected) ++n;
      } else {
        dsts = {all[i % kReceivers]};
        ++expected[i % kReceivers];
      }
      EXPECT_TRUE(sender.send(make_outbound(sender.id(), dsts,
                                            MsgType::kCommand,
                                            bytes_payload(4, 2), /*tag=*/i)));
    }
    std::vector<std::vector<std::uint32_t>> got(kReceivers);
    for (std::uint16_t r = 0; r < kReceivers; ++r) {
      for (std::size_t k = 0; k < expected[r]; ++k) {
        const auto msg = receivers[r]->receive_for(std::chrono::seconds(5));
        if (!msg.has_value()) break;
        got[r].push_back(msg->header.tag);
      }
    }
    return got;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(BrokerSharding, DropCountersAttributePerShard) {
  Broker::Options options;
  options.router_shards = 4;
  Broker broker(0, options);
  Endpoint sender(explorer_id(0, 0), broker);
  constexpr std::uint64_t kUnrouted = 12;
  for (std::uint16_t i = 0; i < kUnrouted; ++i) {
    // Distinct never-registered destinations, spread across the shards.
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {learner_id(0, i)},
                                          MsgType::kDummy, bytes_payload(4, 3))));
  }
  for (int i = 0; i < 2500 && broker.dropped_messages() < kUnrouted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(broker.dropped_messages(DropReason::kUnknownDest), kUnrouted);
  std::uint64_t by_shard = 0;
  for (std::uint32_t s = 0; s < broker.router_shards(); ++s) {
    by_shard += broker.shard_drops(s);
  }
  EXPECT_EQ(by_shard, kUnrouted);
}

TEST(BrokerSharding, QueueDepthSnapshotListsPerShardQueues) {
  Broker::Options options;
  options.router_shards = 2;
  Broker broker(0, options);
  const auto depths = broker.queue_depths();
  auto has = [&](const std::string& name) {
    for (const auto& [queue, depth] : depths) {
      if (queue == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("router-m0"));
  EXPECT_TRUE(has("router-m0/s0"));
  EXPECT_TRUE(has("router-m0/s1"));
}

TEST(BrokerSharding, ShardCountIsClamped) {
  Broker::Options options;
  options.router_shards = 1000;
  Broker broker(0, options);
  EXPECT_EQ(broker.router_shards(), 64u);
}

}  // namespace
}  // namespace xt
