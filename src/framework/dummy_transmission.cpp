#include "framework/dummy_transmission.h"

#include <cstring>
#include <latch>
#include <thread>

#include "comm/endpoint.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_util.h"
#include "netsim/fabric.h"

namespace xt {

Bytes make_dummy_payload(std::size_t size, bool compressible, std::uint64_t seed) {
  Bytes out(size);
  if (compressible) {
    // Long runs with a slowly varying byte: compresses very well.
    for (std::size_t i = 0; i < size; ++i) {
      out[i] = static_cast<std::uint8_t>((i / 4096) & 0xFF);
    }
  } else {
    Rng rng(seed);
    std::size_t i = 0;
    while (i + 8 <= size) {
      const std::uint64_t v = rng.next_u64();
      std::memcpy(out.data() + i, &v, 8);
      i += 8;
    }
    for (; i < size; ++i) out[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  return out;
}

DummyResult run_dummy_transmission_xingtian(const DummyConfig& config) {
  const auto n_machines =
      static_cast<std::uint16_t>(config.explorers_per_machine.size());

  std::vector<std::unique_ptr<Broker>> brokers;
  for (std::uint16_t m = 0; m < n_machines; ++m) {
    brokers.push_back(std::make_unique<Broker>(m, config.broker));
  }
  Fabric fabric(config.link);
  for (std::uint16_t a = 0; a < n_machines; ++a) {
    for (std::uint16_t b = a + 1; b < n_machines; ++b) {
      fabric.connect(*brokers[a], *brokers[b]);
    }
  }

  const NodeId learner = learner_id(config.learner_machine);
  Endpoint learner_endpoint(learner, *brokers[config.learner_machine]);

  struct ExplorerSlot {
    NodeId id;
    std::unique_ptr<Endpoint> endpoint;
  };
  std::vector<ExplorerSlot> explorers;
  std::uint32_t index = 0;
  for (std::uint16_t m = 0; m < n_machines; ++m) {
    for (int i = 0; i < config.explorers_per_machine[m]; ++i) {
      const NodeId id = explorer_id(m, static_cast<std::uint16_t>(index++));
      explorers.push_back(
          {id, std::make_unique<Endpoint>(id, *brokers[id.machine])});
    }
  }

  // Each explorer ships `messages_per_explorer` messages aggressively. The
  // deferred producer means the per-message body materialization (the
  // serialization stand-in) runs on the sender thread — the workhorse just
  // enqueues and moves on, as in a real XingTian explorer.
  const Bytes payload_template = make_dummy_payload(
      config.message_bytes, config.compressible_payload, /*seed=*/42);

  std::latch go(1);
  std::vector<std::thread> workers;
  workers.reserve(explorers.size());
  for (auto& slot : explorers) {
    workers.emplace_back([&, endpoint = slot.endpoint.get(), id = slot.id] {
      set_current_thread_name("dummy-" + id.name());
      go.wait();
      for (int i = 0; i < config.messages_per_explorer; ++i) {
        (void)endpoint->send(make_deferred_outbound(
            id, {learner}, MsgType::kDummy,
            [&payload_template] { return payload_template; }));
      }
    });
  }

  const std::uint64_t total_messages =
      static_cast<std::uint64_t>(explorers.size()) *
      static_cast<std::uint64_t>(config.messages_per_explorer);

  const Stopwatch clock;
  go.count_down();

  DummyResult result;
  // The learner receives `messages_per_explorer` rounds of one message per
  // explorer, without caring which explorer each message came from.
  while (result.messages_received < total_messages) {
    auto msg = learner_endpoint.receive();
    if (!msg) break;
    ++result.messages_received;
    result.bytes_received += msg->body->size();
  }
  result.end_to_end_seconds = clock.elapsed_s();

  for (auto& worker : workers) worker.join();
  for (auto& slot : explorers) slot.endpoint->stop();
  learner_endpoint.stop();
  result.cross_machine_bytes = fabric.total_bytes();
  fabric.stop();
  for (auto& broker : brokers) broker->stop();

  result.throughput_mbps = result.end_to_end_seconds > 0
                               ? static_cast<double>(result.bytes_received) /
                                     1e6 / result.end_to_end_seconds
                               : 0.0;
  return result;
}

}  // namespace xt
