#include "baselines/rpc.h"

#include <future>
#include <memory>

#include "common/clock.h"
#include "obs/catalog.h"

namespace xt::baselines {

RpcTransport::RpcTransport(std::uint16_t n_machines, RpcConfig config)
    : config_(config) {
  to_driver_.resize(n_machines);
  from_driver_.resize(n_machines);
  for (std::uint16_t m = 1; m < n_machines; ++m) {
    to_driver_[m] = std::make_unique<PacedPipe>(
        "rpc-m" + std::to_string(m) + ">m0", config_.link, metrics_);
    from_driver_[m] = std::make_unique<PacedPipe>(
        "rpc-m0>m" + std::to_string(m), config_.link, metrics_);
  }
}

RpcTransport::~RpcTransport() { stop(); }

void RpcTransport::stop() {
  for (auto& pipe : to_driver_) {
    if (pipe) pipe->stop();
  }
  for (auto& pipe : from_driver_) {
    if (pipe) pipe->stop();
  }
}

void RpcTransport::blocking_pipe_transfer(PacedPipe& pipe, std::size_t bytes) {
  // The frame owns the promise, so the delivery thread never touches a
  // promise this thread has already destroyed.
  auto delivered = std::make_shared<std::promise<void>>();
  std::future<void> done = delivered->get_future();
  if (pipe.send(bytes, [delivered] { delivered->set_value(); })) done.wait();
}

void RpcTransport::pace_ipc(std::size_t bytes) const {
  if (config_.ipc_bandwidth_bytes_per_sec > 0.0) {
    precise_sleep_ns(static_cast<std::int64_t>(
        static_cast<double>(bytes) / config_.ipc_bandwidth_bytes_per_sec * 1e9));
  }
}

Bytes RpcTransport::pull(std::uint16_t from_machine, const Bytes& data) {
  precise_sleep_ns(config_.dispatch_ns);
  if (from_machine != 0 && from_machine < to_driver_.size() &&
      to_driver_[from_machine]) {
    blocking_pipe_transfer(*to_driver_[from_machine], data.size());
  }
  // Driver-side landing copy/deserialize: on the caller's thread — the
  // pull model cannot overlap it with anything.
  pace_ipc(data.size());
  return data;  // the return itself is the local delivery copy
}

void RpcTransport::push(std::uint16_t to_machine, const Bytes& data) {
  precise_sleep_ns(config_.dispatch_ns);
  if (to_machine != 0 && to_machine < from_driver_.size() &&
      from_driver_[to_machine]) {
    blocking_pipe_transfer(*from_driver_[to_machine], data.size());
  }
  pace_ipc(data.size());
}

std::uint64_t RpcTransport::cross_machine_bytes() const {
  return metrics_.total(metric::xt_pipe_wire_bytes_total);
}

void chunked_transfer_delay(std::size_t bytes, const ChunkedTransferConfig& config) {
  const std::size_t chunks =
      bytes == 0 ? 1 : (bytes + config.chunk_bytes - 1) / config.chunk_bytes;
  const double serialize_s =
      static_cast<double>(bytes) / config.bandwidth_bytes_per_sec;
  const std::int64_t total_ns =
      static_cast<std::int64_t>(serialize_s * 1e9) +
      static_cast<std::int64_t>(chunks) * config.per_chunk_rtt_ns;
  precise_sleep_ns(total_ns);
}

}  // namespace xt::baselines
