#include "baselines/buffer_hub.h"

#include <latch>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/thread_util.h"

namespace xt::baselines {

BufferServer::BufferServer(ChunkedTransferConfig transfer) : transfer_(transfer) {}

void BufferServer::insert(const Bytes& item) {
  std::scoped_lock lock(mu_);
  // The server is busy receiving this item for the whole transfer — other
  // inserts and samples queue behind it.
  chunked_transfer_delay(item.size(), transfer_);
  items_.push_back(item);
}

std::optional<Bytes> BufferServer::take() {
  std::scoped_lock lock(mu_);
  if (items_.empty()) return std::nullopt;
  Bytes item = std::move(items_.front());
  items_.pop_front();
  chunked_transfer_delay(item.size(), transfer_);
  return item;
}

std::size_t BufferServer::size() const {
  std::scoped_lock lock(mu_);
  return items_.size();
}

DummyResult run_dummy_transmission_bufferhub(const DummyConfig& config,
                                             const ChunkedTransferConfig& transfer) {
  BufferServer server(transfer);
  const Bytes payload_template = make_dummy_payload(
      config.message_bytes, config.compressible_payload, /*seed=*/42);

  int total_explorers = 0;
  for (int n : config.explorers_per_machine) total_explorers += n;
  const std::uint64_t total_messages =
      static_cast<std::uint64_t>(total_explorers) *
      static_cast<std::uint64_t>(config.messages_per_explorer);

  std::latch go(1);
  std::vector<std::thread> workers;
  workers.reserve(total_explorers);
  for (int w = 0; w < total_explorers; ++w) {
    workers.emplace_back([&] {
      set_current_thread_name("dummy-bufw");
      go.wait();
      for (int i = 0; i < config.messages_per_explorer; ++i) {
        const Bytes data = payload_template;  // message materialization
        server.insert(data);
      }
    });
  }

  DummyResult result;
  const Stopwatch clock;
  go.count_down();
  while (result.messages_received < total_messages) {
    auto item = server.take();
    if (!item) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    ++result.messages_received;
    result.bytes_received += item->size();
  }
  result.end_to_end_seconds = clock.elapsed_s();
  for (auto& worker : workers) worker.join();

  result.throughput_mbps = result.end_to_end_seconds > 0
                               ? static_cast<double>(result.bytes_received) /
                                     1e6 / result.end_to_end_seconds
                               : 0.0;
  return result;
}

}  // namespace xt::baselines
