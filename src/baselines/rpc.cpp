#include "baselines/rpc.h"

namespace xt::baselines {

void RpcTransport::call(std::uint16_t machine, std::size_t bytes) {
  std::int64_t cost_ns = config_.dispatch_ns;
  if (machine != 0) {
    const LinkConfig& link = config_.link;
    const std::size_t wire_bytes = bytes + link.frame_overhead_bytes;
    cost_ns += transfer_ns(wire_bytes, link.bandwidth_bytes_per_sec) + link.latency_ns;
    cross_machine_bytes_ += bytes;
  }
  // The landing copy/deserialize: the pull model cannot overlap it either.
  cost_ns += transfer_ns(bytes, config_.ipc_bandwidth_bytes_per_sec);
  wait_until(caller_.add(now_ns(), cost_ns), Wake::kPrecise);
}

void RpcTransport::pace_ipc(std::size_t bytes) const {
  wait_until(now_ns() + transfer_ns(bytes, config_.ipc_bandwidth_bytes_per_sec),
             Wake::kPrecise);
}

Bytes RpcTransport::pull(std::uint16_t from_machine, const Bytes& data) {
  call(from_machine, data.size());
  return data;  // the return itself is the local delivery copy
}

void RpcTransport::push(std::uint16_t to_machine, const Bytes& data) {
  call(to_machine, data.size());
}

void chunked_transfer_delay(std::size_t bytes, const ChunkedTransferConfig& config) {
  const std::size_t chunks =
      bytes == 0 ? 1 : (bytes + config.chunk_bytes - 1) / config.chunk_bytes;
  const std::int64_t cost_ns =
      transfer_ns(bytes, config.bandwidth_bytes_per_sec) +
      static_cast<std::int64_t>(chunks) * config.per_chunk_rtt_ns;
  wait_until(now_ns() + cost_ns, Wake::kPrecise);
}

}  // namespace xt::baselines
