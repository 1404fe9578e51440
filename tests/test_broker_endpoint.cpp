#include "comm/broker.h"
#include "comm/endpoint.h"
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <mutex>
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

// A broker built without telemetry sinks owns its registry and records no
// spans: another broker of the same machine id shares none of its counters.
TEST(BrokerEndpoint, StandaloneBrokersCountOnlyTheirOwnRejects) {
  Broker first(1);
  Broker second(1);
  first.reject_corrupt_frame();
  first.reject_corrupt_frame();
  second.reject_corrupt_frame();
  EXPECT_EQ(first.corrupted_frames(), 2u);
  EXPECT_EQ(second.corrupted_frames(), 1u);
  EXPECT_EQ(first.dropped_messages(DropReason::kCrcFail), 2u);
  EXPECT_EQ(second.dropped_messages(DropReason::kCrcFail), 1u);
  EXPECT_EQ(first.trace(), nullptr);
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

TEST(BrokerEndpoint, MixedBroadcastAndPointToPointArriveInSendOrder) {
  // Every third message is a broadcast to all receivers, the rest go to
  // one receiver each. Each receiver must see its tags in send order, the
  // sequence recorded while sending.
  constexpr std::uint16_t kReceivers = 6;
  constexpr std::uint32_t kMessages = 120;
  Broker broker(0);
  Endpoint sender(controller_id(0), broker);
  std::vector<std::unique_ptr<Endpoint>> receivers;
  std::vector<NodeId> all;
  for (std::uint16_t i = 0; i < kReceivers; ++i) {
    receivers.push_back(std::make_unique<Endpoint>(explorer_id(0, i), broker));
    all.push_back(receivers.back()->id());
  }
  std::vector<std::vector<std::uint32_t>> expected(kReceivers);
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    std::vector<NodeId> dsts;
    if (i % 3 == 0) {
      dsts = all;
      for (auto& tags : expected) tags.push_back(i);
    } else {
      dsts = {all[i % kReceivers]};
      expected[i % kReceivers].push_back(i);
    }
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), dsts, MsgType::kCommand,
                                          bytes_payload(4, 2), /*tag=*/i)));
  }
  for (std::uint16_t r = 0; r < kReceivers; ++r) {
    std::vector<std::uint32_t> got;
    while (got.size() < expected[r].size()) {
      const auto msg = receivers[r]->receive_for(std::chrono::seconds(5));
      if (!msg.has_value()) break;
      got.push_back(msg->header.tag);
    }
    EXPECT_EQ(got, expected[r]) << "receiver " << r;
  }
}

TEST(BrokerEndpoint, QueueDepthSnapshotListsTheRouterAndEveryInbox) {
  // The runtime's saturation sampler exports each entry as
  // xt_queue_depth{queue=...}, and its congestion probe compares them with
  // the overload watermark: one router queue, one inbox per endpoint.
  Broker broker(0);
  Endpoint learner(learner_id(0), broker);
  Endpoint explorer(explorer_id(0, 0), broker);
  // An inbox nobody drains keeps what the router delivers into it.
  const auto parked = broker.register_endpoint(explorer_id(0, 1));
  for (std::uint32_t i = 0; i < 3; ++i) {
    MessageHeader header;
    header.msg_id = next_message_id();
    header.src = learner.id();
    header.dsts = {explorer_id(0, 1)};
    header.object_id = broker.store().put(bytes_payload(4, 1), 1);
    ASSERT_TRUE(broker.submit(header));
  }
  for (int i = 0; i < 2500 && parked->size() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::map<std::string, std::size_t> depths;
  std::size_t entries = 0;
  for (const auto& [queue, depth] : broker.queue_depths()) {
    depths[queue] = depth;
    ++entries;
  }
  EXPECT_EQ(entries, depths.size()) << "a queue is listed twice";
  const std::map<std::string, std::size_t> expected = {
      {"router-m0", 0},
      {"inbox-learner-m0-0", 0},
      {"inbox-explorer-m0-0", 0},
      {"inbox-explorer-m0-1", 3},
  };
  EXPECT_EQ(depths, expected);
  while (auto routed = parked->try_pop()) {
    broker.store().release(routed->header.object_id);
  }
}

// --- Chunked bodies (DESIGN.md §9) -----------------------------------------

/// The header of chunk `index` of a message from `src`, as a far broker
/// decodes it (`link_seq` is nonzero when a reliable link carried it).
MessageHeader chunk_header(std::uint64_t msg_id, const NodeId& src,
                           const NodeId& dst, std::uint64_t body_size,
                           std::uint32_t index, std::uint64_t link_seq = 0) {
  MessageHeader header;
  header.msg_id = msg_id;
  header.src = src;
  header.dsts = {dst};
  header.type = MsgType::kRollout;
  header.tclass = TrafficClass::kExperience;
  header.body_size = body_size;
  header.chunk_count = static_cast<std::uint32_t>(chunk_count_for(body_size));
  header.chunk_index = index;
  header.link_seq = link_seq;
  return header;
}

TEST(RemoteChunks, LostChunkWithoutReliabilityDropsItsBodyOnce) {
  Broker broker(1);
  Endpoint receiver(learner_id(1), broker);
  const NodeId src = explorer_id(0, 0);
  const std::uint64_t size = 2 * kChunkBytes + 10;  // three chunks
  const Payload body = bytes_payload(size, 5);
  const auto deliver = [&](std::uint64_t id, std::uint64_t body_size,
                           std::uint32_t index) {
    broker.deliver_remote(chunk_header(id, src, receiver.id(), body_size, index),
                          body_size == size ? body : bytes_payload(body_size, 6));
  };
  const auto incomplete = [&] {
    return broker.dropped_messages(DropReason::kIncompleteBody);
  };

  // A gap: chunk 1 of message 1 was lost, so its last chunk ends it.
  deliver(1, size, 0);
  deliver(1, size, 2);
  EXPECT_EQ(incomplete(), 1u);
  EXPECT_EQ(broker.partial_bodies(), 0u);

  // The last chunk of message 2 was lost: the sender's next message of the
  // same class ends it and is itself delivered.
  deliver(2, size, 0);
  deliver(2, size, 1);
  EXPECT_EQ(broker.partial_bodies(), 1u);
  deliver(3, 40, 0);
  EXPECT_EQ(incomplete(), 2u);
  EXPECT_EQ(broker.partial_bodies(), 0u);

  for (std::uint32_t i = 0; i < 3; ++i) deliver(4, size, i);
  for (const std::uint64_t expected : {std::uint64_t{3}, std::uint64_t{4}}) {
    const auto msg = receiver.receive_for(std::chrono::seconds(5));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->header.msg_id, expected);
  }
  EXPECT_FALSE(receiver.receive_for(std::chrono::milliseconds(20)).has_value());

  // The table stays bounded: bodies that each lose their tail hold one entry.
  for (std::uint64_t id = 10; id < 60; ++id) {
    deliver(id, size, 0);
    EXPECT_LE(broker.partial_bodies(), 1u);
  }
  EXPECT_EQ(incomplete(), 2u + 49u);
  EXPECT_EQ(broker.dropped_messages(), incomplete());
  receiver.stop();
  EXPECT_EQ(broker.store().live_objects(), 0u);
}

TEST(RemoteChunks, ReliableLinkChunksMayArriveInAnyOrder) {
  Broker broker(1);
  Endpoint receiver(learner_id(1), broker);
  const NodeId src = explorer_id(0, 0);
  const std::uint64_t size = 2 * kChunkBytes + 10;
  const Payload body = bytes_payload(size, 5);
  std::uint64_t seq = 0;
  const auto deliver = [&](std::uint64_t id, std::uint32_t index) {
    broker.deliver_remote(chunk_header(id, src, receiver.id(), size, index, ++seq),
                          body);
  };
  // A retransmitted chunk arrives after later ones, even after a newer
  // message from the same sender.
  deliver(1, 2);
  deliver(1, 0);
  deliver(2, 0);
  deliver(2, 1);
  deliver(2, 2);
  deliver(1, 1);
  for (const std::uint64_t expected : {std::uint64_t{2}, std::uint64_t{1}}) {
    const auto msg = receiver.receive_for(std::chrono::seconds(5));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->header.msg_id, expected);
    EXPECT_EQ(msg->body->size(), size);
  }
  EXPECT_EQ(broker.partial_bodies(), 0u);

  // Bodies whose missing chunks were given up stay until the table is full;
  // then the least recently extended one goes.
  constexpr std::uint64_t kExtra = 5;
  for (std::uint64_t id = 10; id < 10 + Broker::kMaxPartialBodies + kExtra; ++id) {
    deliver(id, 0);
  }
  EXPECT_EQ(broker.partial_bodies(), Broker::kMaxPartialBodies);
  EXPECT_EQ(broker.dropped_messages(DropReason::kIncompleteBody), kExtra);
  receiver.stop();
  EXPECT_EQ(broker.store().live_objects(), 0u);
}

TEST(Chunking, BrokerStopMidMessageBalancesTheStore) {
  Broker::Options options;
  options.ipc_bandwidth_bytes_per_sec = 20e6;  // 4 chunks take ~52 ms
  options.compression.enabled = false;
  Broker broker(0, options);
  std::mutex mu;
  std::vector<std::uint32_t> forwarded;
  broker.set_remote_sink(1, [&](MessageHeader header, Payload) {
    std::scoped_lock lock(mu);
    forwarded.push_back(header.chunk_index);
  });
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint local(learner_id(0), broker);
  ASSERT_TRUE(sender.send(make_outbound(sender.id(), {local.id(), learner_id(1)},
                                        MsgType::kRollout,
                                        bytes_payload(4 * kChunkBytes, 3))));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  broker.stop();
  sender.stop();
  local.stop();
  EXPECT_FALSE(local.try_receive().has_value());
  {
    std::scoped_lock lock(mu);
    EXPECT_LT(forwarded.size(), 4u);
  }
  EXPECT_EQ(broker.store().live_objects(), 0u);
}

TEST(Chunking, ShedFirstChunkHeaderSkipsItsWholeMessage) {
  Broker::Options options;
  options.overload.high_watermark = 1;
  options.overload.shed_policy = ShedPolicy::kNewest;
  Broker broker(0, options);
  // The sink parks the router on its first forward, so the router queue
  // fills behind it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> forwarded;
  broker.set_remote_sink(1, [&](MessageHeader header, Payload) {
    std::unique_lock lock(mu);
    forwarded.emplace_back(header.msg_id, header.chunk_index);
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  const auto put = [&](std::uint64_t size) {
    MessageHeader header = chunk_header(next_message_id(), explorer_id(0, 0),
                                        learner_id(1), size, 0);
    header.object_id = broker.store().put(bytes_payload(size, 1),
                                          broker.expected_fetches(header));
    return header;
  };
  const auto submit = [&](MessageHeader header, std::uint32_t index) {
    header.chunk_index = index;
    ASSERT_TRUE(broker.submit(header));
  };
  const MessageHeader blocker = put(16);
  submit(blocker, 0);
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return !forwarded.empty(); }));
  }
  const MessageHeader kept = put(2 * kChunkBytes + 1);
  const MessageHeader shed = put(2 * kChunkBytes + 1);
  submit(kept, 0);  // fills the queue to its watermark
  submit(shed, 0);  // shed: the newest at the watermark
  EXPECT_EQ(broker.shed_messages(), 1u);
  for (std::uint32_t i = 1; i < 3; ++i) {  // later chunks are pinned
    submit(kept, i);
    submit(shed, i);
  }
  EXPECT_EQ(broker.shed_messages(), 1u);
  {
    std::scoped_lock lock(mu);
    release = true;
  }
  cv.notify_all();
  broker.stop();  // drains the router queue
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> expected = {
      {blocker.msg_id, 0}, {kept.msg_id, 0}, {kept.msg_id, 1}, {kept.msg_id, 2}};
  EXPECT_EQ(forwarded, expected);
  EXPECT_EQ(broker.shed_messages(), 1u);
  EXPECT_EQ(broker.dropped_messages(), 0u);
  EXPECT_EQ(broker.store().live_objects(), 0u);
}

}  // namespace
}  // namespace xt
