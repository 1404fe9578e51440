#include "netsim/fabric.h"
#include "netsim/paced_pipe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/endpoint.h"
#include "common/clock.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serial/wire_format.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

namespace xt {
namespace {

Payload bytes_payload(std::size_t n, std::uint8_t fill) {
  return make_payload(Bytes(n, fill));
}

MessageHeader control_header(MsgType type, NodeId dst, const Payload& body,
                             std::uint32_t tag = 0) {
  MessageHeader header;
  header.msg_id = next_message_id();
  header.src = explorer_id(0, 0);
  header.dsts = {dst};
  header.type = type;
  header.tclass = traffic_class_of(type);
  header.body_size = body->size();
  header.created_ns = 123;
  header.tag = tag;
  return header;
}

/// Spin until `done` or a 10 s deadline.
bool wait_for(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

/// Sends one frame per entry of `sizes` and returns the order in which they
/// were delivered, once stop() has drained the pipe.
std::vector<int> delivery_order(const LinkConfig& link,
                                const std::vector<std::size_t>& sizes) {
  PacedPipe pipe("order", link);
  std::mutex mu;
  std::vector<int> delivered;
  for (int i = 0; i < static_cast<int>(sizes.size()); ++i) {
    EXPECT_TRUE(pipe.send(sizes[i], [&, i] {
      std::scoped_lock lock(mu);
      delivered.push_back(i);
    }));
  }
  pipe.stop();
  return delivered;
}

TEST(PacedPipe, DeliversFramesInOrder) {
  std::vector<int> expected(10);
  for (int i = 0; i < 10; ++i) expected[i] = i;
  EXPECT_EQ(delivery_order(LinkConfig{1e9, 0, 0},
                           std::vector<std::size_t>(10, 8)),
            expected);

  // With propagation in flight: a 10 ms frame ahead of small ones, on a
  // 5 ms link. None of the small frames overtakes it or each other.
  std::vector<std::size_t> sizes(10, 8);
  sizes[0] = 100'000;
  EXPECT_EQ(delivery_order(LinkConfig{10e6, 5'000'000, 0}, sizes), expected);

  // A delay fault holds back the frames behind it: half the frames take an
  // extra 20 ms, and still none overtakes a delayed one.
  LinkConfig delayed{1e9, 1'000'000, 0};
  delayed.faults.seed = 3;
  delayed.faults.delay_probability = 0.5;
  delayed.faults.delay_ns = 20'000'000;
  EXPECT_EQ(delivery_order(delayed, std::vector<std::size_t>(10, 8)), expected);
}

TEST(PacedPipe, PropagationOverlapsSerialization) {
  // Ten tiny frames on a 50 ms link. Each frame holds the wire only for its
  // serialization, so all of them land about one latency after the first
  // send, not ten latencies (500 ms) later.
  PacedPipe pipe("overlap", LinkConfig{1e12, 50'000'000, 0});
  std::atomic<int> delivered{0};
  const Stopwatch clock;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pipe.send(8, [&] { delivered.fetch_add(1); }));
  }
  ASSERT_TRUE(wait_for([&] { return delivered.load() == 10; }));
  EXPECT_GE(clock.elapsed_ms(), 49.0);
  EXPECT_LT(clock.elapsed_ms(), 250.0);
}

TEST(PacedPipe, StopDeliversFramesInFlight) {
  PacedPipe pipe("drain", LinkConfig{1e12, 20'000'000, 0});
  std::atomic<int> delivered{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pipe.send(8, [&] { delivered.fetch_add(1); }));
  }
  // Every frame has left the wire queue and is propagating.
  ASSERT_TRUE(wait_for([&] { return pipe.queued_frames() == 0; }));
  pipe.stop();
  EXPECT_EQ(delivered.load(), 5);
}

TEST(PacedPipe, PacesAtConfiguredBandwidth) {
  // 10 MB at 100 MB/s should take ~100 ms.
  LinkConfig link;
  link.bandwidth_bytes_per_sec = 100e6;
  link.latency_ns = 0;
  link.frame_overhead_bytes = 0;
  PacedPipe pipe("bw", link);
  std::atomic<bool> done{false};
  const Stopwatch clock;
  ASSERT_TRUE(pipe.send(10'000'000, [&] { done.store(true); }));
  while (!done.load()) std::this_thread::yield();
  const double elapsed = clock.elapsed_s();
  EXPECT_GE(elapsed, 0.095);
  EXPECT_LT(elapsed, 0.5);
}

TEST(PacedPipe, AppliesPropagationLatency) {
  LinkConfig link;
  link.bandwidth_bytes_per_sec = 1e12;
  link.latency_ns = 20'000'000;  // 20 ms
  link.frame_overhead_bytes = 0;
  MetricsRegistry metrics;
  TraceCollector trace;
  trace.enable();
  PacedPipe::Observability obs;
  obs.trace = &trace;
  obs.transmit_ms = &metrics.histogram("xt_pipe_transmit_ms");
  PacedPipe pipe("lat", link, obs);
  std::atomic<bool> done{false};
  const Stopwatch clock;
  ASSERT_TRUE(pipe.send(1, [&] { done.store(true); }, /*trace_id=*/7));
  while (!done.load()) std::this_thread::yield();
  EXPECT_GE(clock.elapsed_ms(), 19.0);
  // The transmit histogram and span still run to the far-end delivery, so
  // they include the propagation delay, not just serialization.
  EXPECT_EQ(obs.transmit_ms->count(), 1u);
  EXPECT_GE(obs.transmit_ms->sum(), 19.0);
  const std::vector<TraceSpan> spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "pipe.transmit");
  EXPECT_EQ(spans[0].trace_id, 7u);
  EXPECT_GE(spans[0].dur_ns, 19'000'000);
}

TEST(PacedPipe, CountsBytesAndFrames) {
  PacedPipe pipe("count", LinkConfig{1e12, 0, 0});
  std::atomic<int> delivered{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pipe.send(100, [&] { delivered.fetch_add(1); }));
  }
  while (delivered.load() < 5) std::this_thread::yield();
  EXPECT_EQ(pipe.bytes_transferred(), 500u);
  EXPECT_EQ(pipe.frames_transferred(), 5u);
}

TEST(PacedPipe, StopRejectsFurtherSends) {
  PacedPipe pipe("stop", LinkConfig{1e12, 0, 0});
  pipe.stop();
  EXPECT_FALSE(pipe.send(10, [] {}));
}

TEST(Fabric, CrossMachineDelivery) {
  Broker machine0(0);
  Broker machine1(1);
  Fabric fabric(LinkConfig{1e9, 10'000, 64});
  fabric.connect(machine0, machine1);

  Endpoint sender(explorer_id(1, 0), machine1);
  Endpoint receiver(learner_id(0), machine0);

  ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                        MsgType::kRollout,
                                        make_payload(Bytes(1'000, 3)))));
  const auto msg = receiver.receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body->size(), 1'000u);
  EXPECT_EQ(msg->body->front(), 3);
  EXPECT_GE(fabric.total_bytes(), 1'000u);

  sender.stop();
  receiver.stop();
  fabric.stop();
}

TEST(Fabric, CrossMachineBroadcastReachesLocalAndRemote) {
  Broker machine0(0);
  Broker machine1(1);
  Fabric fabric(LinkConfig{1e9, 0, 0});
  fabric.connect(machine0, machine1);

  Endpoint learner(learner_id(0), machine0);
  Endpoint local(explorer_id(0, 0), machine0);
  Endpoint remote_a(explorer_id(1, 1), machine1);
  Endpoint remote_b(explorer_id(1, 2), machine1);

  ASSERT_TRUE(learner.send(make_outbound(
      learner.id(), {local.id(), remote_a.id(), remote_b.id()},
      MsgType::kWeights, make_payload(Bytes(500, 8)))));

  for (Endpoint* endpoint : {&local, &remote_a, &remote_b}) {
    const auto msg = endpoint->receive_for(std::chrono::seconds(5));
    ASSERT_TRUE(msg.has_value()) << endpoint->id().name();
    EXPECT_EQ(msg->body->size(), 500u);
  }
  // The body must cross the wire once, not once per remote destination.
  EXPECT_LE(fabric.total_bytes(), 600u);

  learner.stop();
  local.stop();
  remote_a.stop();
  remote_b.stop();
  fabric.stop();
}

TEST(Fabric, RemoteTransmissionIsBandwidthBound) {
  // Disable compression: a constant-fill body would otherwise shrink to
  // almost nothing before hitting the link.
  Broker::Options options;
  options.compression.enabled = false;
  Broker machine0(0, options);
  Broker machine1(1, options);
  // 50 MB/s link; a 5 MB body should take ~100 ms.
  Fabric fabric(LinkConfig{50e6, 0, 0});
  fabric.connect(machine0, machine1);

  Endpoint sender(explorer_id(1, 0), machine1);
  Endpoint receiver(learner_id(0), machine0);

  const Stopwatch clock;
  ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                        MsgType::kRollout,
                                        make_payload(Bytes(5'000'000, 1)))));
  const auto msg = receiver.receive_for(std::chrono::seconds(10));
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(clock.elapsed_ms(), 95.0);

  sender.stop();
  receiver.stop();
  fabric.stop();
}

TEST(PacedPipe, FullDropPlanDeliversNothingButCountsFrames) {
  LinkConfig link{1e9, 0, 0};
  link.faults.drop_probability = 1.0;
  PacedPipe pipe("lossy", link);
  std::atomic<int> delivered{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pipe.send(8, [&] { delivered.fetch_add(1); }));
  }
  pipe.stop();
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(pipe.frames_dropped(), 20u);
  // Dropped frames still occupied the wire (send-side pacing happened).
  EXPECT_EQ(pipe.frames_transferred(), 20u);
}

TEST(PacedPipe, FullCorruptionPlanFlagsEveryDeliveredFrame) {
  LinkConfig link{1e9, 0, 0};
  link.faults.corrupt_probability = 1.0;
  PacedPipe pipe("noisy", link);
  std::atomic<int> corrupted{0};
  std::atomic<int> delivered{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pipe.send_faultable(8, [&](const FaultOutcome& outcome) {
      delivered.fetch_add(1);
      if (outcome.corrupt) {
        EXPECT_NE(outcome.corrupt_mask, 0);  // XOR mask always flips a bit
        corrupted.fetch_add(1);
      }
    }));
  }
  pipe.stop();
  EXPECT_EQ(delivered.load(), 20);
  EXPECT_EQ(corrupted.load(), 20);
  EXPECT_EQ(pipe.frames_dropped(), 0u);
}

TEST(PacedPipe, BlackoutWindowDropsFramesInsideIt) {
  // Window opens immediately and never closes: everything is blacked out.
  LinkConfig link{1e9, 0, 0};
  link.faults.blackout_start_s = 0.0;
  link.faults.blackout_duration_s = 3600.0;
  PacedPipe pipe("dark", link);
  std::atomic<int> delivered{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pipe.send(8, [&] { delivered.fetch_add(1); }));
  }
  pipe.stop();
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(pipe.frames_dropped(), 5u);
}

TEST(FaultPlan, BlackoutWindowsRepeatWithPeriod) {
  FaultPlan plan;
  plan.blackout_start_s = 1.0;
  plan.blackout_duration_s = 0.5;
  plan.blackout_every_s = 2.0;
  EXPECT_FALSE(plan.blackout_at(0.5));  // before the first window
  EXPECT_TRUE(plan.blackout_at(1.2));   // inside the first window
  EXPECT_FALSE(plan.blackout_at(1.7));  // between windows
  EXPECT_TRUE(plan.blackout_at(3.3));   // second period's window
  EXPECT_FALSE(plan.blackout_at(3.8));
}

TEST(Fabric, ThreeMachineStarThroughLearnerCenter) {
  std::vector<std::unique_ptr<Broker>> brokers;
  for (std::uint16_t m = 0; m < 3; ++m) brokers.push_back(std::make_unique<Broker>(m));
  Fabric fabric(LinkConfig{1e9, 0, 0});
  fabric.connect(*brokers[0], *brokers[1]);
  fabric.connect(*brokers[0], *brokers[2]);

  Endpoint learner(learner_id(0), *brokers[0]);
  Endpoint e1(explorer_id(1, 0), *brokers[1]);
  Endpoint e2(explorer_id(2, 1), *brokers[2]);

  ASSERT_TRUE(e1.send(make_outbound(e1.id(), {learner.id()}, MsgType::kRollout,
                                    make_payload(Bytes(10, 1)))));
  ASSERT_TRUE(e2.send(make_outbound(e2.id(), {learner.id()}, MsgType::kRollout,
                                    make_payload(Bytes(10, 2)))));
  int received = 0;
  while (received < 2) {
    ASSERT_TRUE(learner.receive_for(std::chrono::seconds(5)).has_value());
    ++received;
  }
  learner.stop();
  e1.stop();
  e2.stop();
  fabric.stop();
}

TEST(WireFrame, RoundTripSharesBodySegments) {
  const Payload stats_body = bytes_payload(64, 7);
  const MessageHeader stats =
      control_header(MsgType::kStats, controller_id(1), stats_body, 9);
  WireFrame frame = encode_wire_frame(stats, stats_body, /*with_crc=*/true);
  EXPECT_TRUE(frame.crc_present);
  EXPECT_EQ(frame.wire_size(), frame.control.size() + 64);
  EXPECT_EQ(frame.trace_id, stats.trace_id());
  EXPECT_EQ(frame.tclass, TrafficClass::kExperience);
  frame.link_seq = 42;

  const auto decoded = decode_wire_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  const MessageHeader& header = decoded->header;
  EXPECT_EQ(header.msg_id, stats.msg_id);
  EXPECT_EQ(header.src, stats.src);
  ASSERT_EQ(header.dsts.size(), 1u);
  EXPECT_EQ(header.dsts[0], controller_id(1));
  EXPECT_EQ(header.type, MsgType::kStats);
  EXPECT_EQ(header.body_size, 64u);
  EXPECT_EQ(header.tag, 9u);
  EXPECT_EQ(header.created_ns, 123);
  // The frame's link seq is propagated to the message.
  EXPECT_EQ(header.link_seq, 42u);
  // Scatter-gather: the decoded body IS the encoded segment — the same
  // buffer the sender's object store held, never copied onto the wire.
  EXPECT_EQ(decoded->body.get(), stats_body.get());

  // A body-less control message rides with an empty segment.
  const MessageHeader beat =
      control_header(MsgType::kHeartbeat, controller_id(1), empty_payload());
  const WireFrame beat_frame =
      encode_wire_frame(beat, empty_payload(), /*with_crc=*/false);
  EXPECT_EQ(beat_frame.tclass, TrafficClass::kControl);
  EXPECT_EQ(beat_frame.wire_size(), beat_frame.control.size());
  const auto beat_decoded = decode_wire_frame(beat_frame);
  ASSERT_TRUE(beat_decoded.has_value());
  EXPECT_EQ(beat_decoded->header.type, MsgType::kHeartbeat);
  EXPECT_EQ(beat_decoded->header.body_size, 0u);
}

TEST(WireFrame, ChainedCrcCoversControlAndEveryBody) {
  const Payload body = bytes_payload(32, 1);
  const WireFrame frame = encode_wire_frame(
      control_header(MsgType::kStats, controller_id(1), body), body,
      /*with_crc=*/true);
  ASSERT_TRUE(decode_wire_frame(frame).has_value());

  // A flip in the control segment fails the frame.
  WireFrame control_hit = frame;
  control_hit.control[3] ^= 0x10;
  EXPECT_FALSE(decode_wire_frame(control_hit).has_value());

  // A flip in the body segment fails it too: the CRC chains across both.
  FaultOutcome outcome;
  outcome.corrupt = true;
  outcome.corrupt_offset = frame.control.size() + 5;
  outcome.corrupt_mask = 0x40;
  const WireFrame body_hit = apply_corruption(frame, outcome);
  EXPECT_FALSE(decode_wire_frame(body_hit).has_value());
  // Copy-on-corrupt: the hit body was replaced; the original frame still
  // shares the sender's buffer and still decodes.
  EXPECT_NE(body_hit.body.get(), frame.body.get());
  EXPECT_EQ(frame.body.get(), body.get());
  EXPECT_TRUE(decode_wire_frame(frame).has_value());
}

// --- decode_wire_frame fuzz target (tests/fuzz/wire_frame_fuzz.cpp) -------
// Its input is a 2-byte little-endian control size, the control segment and
// then the body; it aborts on a broken invariant, so a crash here is a
// failure.

struct FrameInput {
  std::string name;
  Bytes control;
  Bytes body;
};

Bytes fuzz_input(const Bytes& control, const Bytes& body) {
  Bytes out = {static_cast<std::uint8_t>(control.size()),
               static_cast<std::uint8_t>(control.size() >> 8)};
  out.insert(out.end(), control.begin(), control.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void run_fuzz_target(const Bytes& input) {
  (void)LLVMFuzzerTestOneInput(input.data(), input.size());
}

std::vector<FrameInput> wire_frame_corpus() {
  std::vector<FrameInput> entries;
  const std::filesystem::path dir =
      std::filesystem::path(XT_SOURCE_DIR) / "tests/fuzz/corpus/wire_frame";
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    const Bytes bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (bytes.size() < 2) continue;
    const std::size_t control_size =
        std::min<std::size_t>(bytes[0] | bytes[1] << 8, bytes.size() - 2);
    const auto body_begin =
        bytes.begin() + 2 + static_cast<std::ptrdiff_t>(control_size);
    entries.push_back({file.path().filename().string(),
                       Bytes(bytes.begin() + 2, body_begin),
                       Bytes(body_begin, bytes.end())});
  }
  std::sort(entries.begin(), entries.end(),
            [](const FrameInput& a, const FrameInput& b) { return a.name < b.name; });
  return entries;
}

TEST(WireFrameFuzz, CorpusReplays) {
  const std::vector<FrameInput> corpus = wire_frame_corpus();
  ASSERT_GE(corpus.size(), 16u);
  for (const FrameInput& entry : corpus) {
    SCOPED_TRACE(entry.name);
    run_fuzz_target(fuzz_input(entry.control, entry.body));
    // ok_* entries are frames encode_wire_frame built; bad_* entries each
    // break one rule of the control segment or its agreement with the body.
    WireFrame frame;
    frame.control = entry.control;
    frame.body = make_payload(entry.body);
    frame.body_length = entry.body.size();
    EXPECT_EQ(decode_wire_frame(frame).has_value(), entry.name.rfind("ok_", 0) == 0);
  }
}

TEST(WireFrameFuzz, SeededMutationsOfCorpus) {
  // Truncations of the control segment and of the body, bit flips anywhere
  // in the input (its size prefix included), and every control byte forced
  // to 0x00 and 0xFF, over every well-formed corpus frame. A seed of a
  // whole 256 KiB chunk takes fewer flips: each case reads its body three
  // times.
  Rng rng(53);
  std::size_t cases = 0;
  const auto check = [&](const Bytes& input) {
    run_fuzz_target(input);
    ++cases;
  };
  const auto prefix = [](const Bytes& bytes, std::size_t len) {
    return Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
  };
  for (const FrameInput& seed : wire_frame_corpus()) {
    if (seed.name.rfind("ok_", 0) != 0) continue;
    SCOPED_TRACE(seed.name);
    const Bytes& control = seed.control;
    for (std::size_t len = 0; len < control.size(); ++len) {
      check(fuzz_input(prefix(control, len), seed.body));
    }
    for (std::size_t len = 0; len < seed.body.size(); len += 1 + len / 8) {
      check(fuzz_input(control, prefix(seed.body, len)));
    }
    const Bytes input = fuzz_input(control, seed.body);
    const std::size_t flip_cases =
        400 * 4096 / std::max<std::size_t>(input.size(), 4096);
    for (std::size_t i = 0; i < flip_cases; ++i) {
      Bytes mangled = input;
      for (int flips = 1 + static_cast<int>(rng.uniform_index(3)); flips > 0; --flips) {
        mangled[rng.uniform_index(mangled.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      }
      check(mangled);
    }
    for (std::size_t at = 0; at < control.size(); ++at) {
      for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
        Bytes forced = control;
        forced[at] = value;
        check(fuzz_input(forced, seed.body));
      }
    }
  }
  EXPECT_GT(cases, 2'000u);
}

TEST(Fabric, ControlMessagesDeliverInOrder) {
  Broker a(0);
  Broker b(1);
  Fabric fabric;
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint receiver(controller_id(1), b);
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kHeartbeat,
                                          bytes_payload(16, 1), /*tag=*/i)));
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto msg = receiver.receive_for(std::chrono::seconds(10));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->header.tag, i);
  }
  sender.stop();
  receiver.stop();
  fabric.stop();
  a.stop();
  b.stop();
}

TEST(Fabric, CorruptWireFrameRejectsItsMessageExactlyOnce) {
  Broker a(0);
  Broker b(1);
  LinkConfig link;
  link.faults.seed = 7;
  link.faults.corrupt_probability = 1.0;  // every frame takes a byte flip
  Fabric fabric(link);
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint receiver(controller_id(1), b);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kHeartbeat,
                                          bytes_payload(16, 2), /*tag=*/i)));
  }
  ASSERT_TRUE(wait_for([&] { return b.corrupted_frames() >= 3; }));
  // One corrupted wire frame and one CRC drop per message, and none of the
  // messages delivered.
  EXPECT_EQ(b.corrupted_frames(), 3u);
  EXPECT_EQ(b.dropped_messages(DropReason::kCrcFail), 3u);
  EXPECT_FALSE(receiver.receive_for(std::chrono::milliseconds(100)).has_value());
  sender.stop();
  receiver.stop();
  fabric.stop();
  a.stop();
  b.stop();
}

TEST(ReliableLink, LossyLinkDeliversEveryMessageOnce) {
  Broker a(0);
  Broker b(1);
  LinkConfig link;
  link.faults.seed = 13;
  link.faults.drop_probability = 0.25;
  ReliabilityConfig reliability;
  reliability.enabled = true;
  reliability.rto_ms = 10.0;
  Fabric fabric(link, reliability);
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint receiver(controller_id(1), b);
  constexpr std::uint32_t kMessages = 40;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kHeartbeat,
                                          bytes_payload(16, 4), /*tag=*/i)));
  }
  std::vector<std::uint32_t> tags;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    const auto msg = receiver.receive_for(std::chrono::seconds(20));
    ASSERT_TRUE(msg.has_value());
    tags.push_back(msg->header.tag);
  }
  // Retransmits may reorder messages but every one arrives exactly once
  // (dedup by frame seq), and nothing more follows.
  std::sort(tags.begin(), tags.end());
  for (std::uint32_t i = 0; i < kMessages; ++i) EXPECT_EQ(tags[i], i);
  EXPECT_FALSE(receiver.receive_for(std::chrono::milliseconds(100)).has_value());
  sender.stop();
  receiver.stop();
  fabric.stop();
  a.stop();
  b.stop();
}

// --- Chunked bodies across links (DESIGN.md §9) ---------------------------

/// A body whose every byte depends on its tag and position, so a chunk out
/// of place or from another message shows.
Payload patterned_body(std::size_t size, std::uint32_t tag) {
  Bytes bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 31 + i / kChunkBytes + tag * 7);
  }
  return make_payload(std::move(bytes));
}

bool is_patterned(const Payload& body, std::size_t size, std::uint32_t tag) {
  return body != nullptr && *body == *patterned_body(size, tag);
}

TEST(Chunking, MixedMessagesKeepFifoOrderPerDestination) {
  Broker a(0);
  Broker b(1);
  Fabric fabric(LinkConfig{1e9, 10'000, 0});
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint local(learner_id(0), a);
  Endpoint remote(learner_id(1), b);
  // One chunk, exactly one chunk, one byte over, several chunks, empty.
  const std::vector<std::size_t> sizes = {100, kChunkBytes, kChunkBytes + 1,
                                          3 * kChunkBytes + 5, 0};
  constexpr std::uint32_t kMessages = 20;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    const std::size_t size = sizes[i % sizes.size()];
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {local.id(), remote.id()},
                                          MsgType::kRollout,
                                          patterned_body(size, i), i)));
  }
  for (Endpoint* receiver : {&local, &remote}) {
    SCOPED_TRACE(receiver->id().name());
    for (std::uint32_t i = 0; i < kMessages; ++i) {
      const auto msg = receiver->receive_for(std::chrono::seconds(10));
      ASSERT_TRUE(msg.has_value());
      ASSERT_EQ(msg->header.tag, i);
      EXPECT_TRUE(is_patterned(msg->body, sizes[i % sizes.size()], i));
    }
  }
  sender.stop();
  local.stop();
  remote.stop();
  fabric.stop();
  EXPECT_EQ(a.store().live_objects(), 0u);
  EXPECT_EQ(b.store().live_objects(), 0u);
  EXPECT_EQ(b.partial_bodies(), 0u);
  EXPECT_EQ(a.dropped_messages() + b.dropped_messages(), 0u);
}

TEST(Chunking, LossyReliableLinkDeliversEachWholeBodyOnce) {
  Broker a(0);
  Broker b(1);
  LinkConfig link{1e9, 10'000, 0};
  link.faults.seed = 29;
  link.faults.drop_probability = 0.2;
  link.faults.corrupt_probability = 0.1;
  ReliabilityConfig reliability;
  reliability.enabled = true;
  reliability.rto_ms = 10.0;
  Fabric fabric(link, reliability);
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint receiver(learner_id(1), b);
  // Retransmitted chunks land after later ones, out of order within their
  // body and across bodies.
  constexpr std::uint32_t kMessages = 8;
  const auto size_of = [](std::uint32_t i) {
    return (i % 2 == 0) ? 2 * kChunkBytes + 100 * i : 64 * i;
  };
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kRollout,
                                          patterned_body(size_of(i), i), i)));
  }
  std::vector<bool> got(kMessages, false);
  for (std::uint32_t n = 0; n < kMessages; ++n) {
    const auto msg = receiver.receive_for(std::chrono::seconds(20));
    ASSERT_TRUE(msg.has_value()) << "after " << n << " messages";
    const std::uint32_t tag = msg->header.tag;
    ASSERT_LT(tag, kMessages);
    EXPECT_FALSE(got[tag]) << "duplicate delivery of tag " << tag;
    got[tag] = true;
    EXPECT_TRUE(is_patterned(msg->body, size_of(tag), tag)) << "tag " << tag;
  }
  EXPECT_FALSE(receiver.receive_for(std::chrono::milliseconds(100)).has_value());
  std::uint64_t retransmits = 0;
  for (const ReliableChannel* channel : fabric.channels()) {
    retransmits += channel->retransmits();
  }
  EXPECT_GT(retransmits, 0u);
  sender.stop();
  receiver.stop();
  fabric.stop();
  EXPECT_EQ(b.partial_bodies(), 0u);
  EXPECT_EQ(b.dropped_messages(DropReason::kIncompleteBody), 0u);
  EXPECT_EQ(a.store().live_objects(), 0u);
  EXPECT_EQ(b.store().live_objects(), 0u);
}

TEST(Chunking, QueuedFramesAreNotRetransmitted) {
  // An unpaced put queues every chunk at once on a 4 MB/s link, so the
  // last chunks wait ~700 ms for the wire, past the 200 ms timeout. The
  // timer starts as a frame's serialization starts, so a fault-free link
  // sends each frame once. A chunk serializes in 66 ms, which leaves the
  // far end's CRC check time to ack it within the timeout on a slow
  // (sanitized, loaded) host.
  Broker a(0);
  Broker b(1);
  ReliabilityConfig reliability;
  reliability.enabled = true;
  reliability.rto_ms = 200.0;
  Fabric fabric(LinkConfig{4e6, 10'000, 0}, reliability);
  fabric.connect(a, b);
  Endpoint sender(explorer_id(0, 0), a);
  Endpoint receiver(learner_id(1), b);
  constexpr std::uint32_t kMessages = 3;
  const std::size_t size = 4 * kChunkBytes - 7;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(sender.send(make_outbound(sender.id(), {receiver.id()},
                                          MsgType::kRollout,
                                          patterned_body(size, i), i)));
  }
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    const auto msg = receiver.receive_for(std::chrono::seconds(10));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->header.tag, i);
    EXPECT_TRUE(is_patterned(msg->body, size, i));
  }
  sender.stop();
  receiver.stop();
  fabric.stop();
  EXPECT_EQ(a.store().live_objects(), 0u);
  EXPECT_EQ(b.store().live_objects(), 0u);
  for (const ReliableChannel* channel : fabric.channels()) {
    EXPECT_EQ(channel->retransmits(), 0u);
  }
  std::uint64_t duplicates = 0;
  for (const auto& [name, value] : a.metrics().counters()) {
    if (name.rfind("xt_link_duplicate_frames_total", 0) == 0) duplicates += value;
  }
  for (const auto& [name, value] : b.metrics().counters()) {
    if (name.rfind("xt_link_duplicate_frames_total", 0) == 0) duplicates += value;
  }
  EXPECT_EQ(duplicates, 0u);
  // The data direction carried each body once plus one control segment per
  // chunk frame.
  MessageHeader header = make_outbound(sender.id(), {receiver.id()},
                                       MsgType::kRollout, empty_payload())
                             .header;
  header.body_size = size;
  header.chunk_count = static_cast<std::uint32_t>(chunk_count_for(size));
  const std::size_t control =
      encode_wire_frame(header, patterned_body(size, 0), true).control.size();
  const std::uint64_t frames = kMessages * header.chunk_count;
  for (const PacedPipe* pipe : fabric.pipes()) {
    if (pipe->name() != "m0>m1") continue;
    EXPECT_EQ(pipe->frames_transferred(), frames);
    EXPECT_EQ(pipe->bytes_transferred(), kMessages * size + frames * control);
  }
}

}  // namespace
}  // namespace xt
