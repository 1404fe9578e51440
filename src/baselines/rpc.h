#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/clock.h"
#include "netsim/paced_pipe.h"

namespace xt::baselines {

/// Cost model for the receiver-initiated RPC communication of the pull-based
/// baseline frameworks (paper Section 2.2). The defining property is not the
/// constants — it is that every transfer runs *synchronously on the caller's
/// thread*, serializing communication with computation.
struct RpcConfig {
  /// Per-call dispatch/scheduling overhead (task submission, RPC setup).
  std::int64_t dispatch_ns = 200'000;  // 0.2 ms
  /// Cross-machine NIC characteristics (same default as the XingTian fabric
  /// so comparisons isolate the communication model, not the hardware).
  /// Only its bandwidth, latency and frame overhead apply: a pull has no
  /// fault plan or overload policy.
  LinkConfig link;
  /// Modeled serialize+copy bandwidth for moving bytes between logical
  /// processes (0 = unpaced). Must be set to the SAME value as the XingTian
  /// broker's ipc_bandwidth so only the communication model differs: here
  /// the cost lands on the *driver's* thread at pull time (and on the
  /// worker's thread at produce time), serializing it with computation.
  double ipc_bandwidth_bytes_per_sec = 0.0;
};

/// Synchronous byte transfers between the driver (always machine 0) and
/// workers. Each call pays, one after another on the caller's thread,
/// dispatch, then for a remote machine the link's serialization and
/// propagation, then the landing copy — the pull model's defining cost.
/// pull() and push() come from one thread, machine 0's; pace_ipc() from any.
class RpcTransport {
 public:
  explicit RpcTransport(RpcConfig config) : config_(config) {}

  /// Pull `data` from `from_machine` to the driver; returns the delivered
  /// copy. Blocks for the full simulated transfer.
  [[nodiscard]] Bytes pull(std::uint16_t from_machine, const Bytes& data);

  /// Push `data` from the driver to `to_machine`; blocks likewise.
  void push(std::uint16_t to_machine, const Bytes& data);

  /// Pay the modeled local serialize/copy cost for `bytes` on the calling
  /// thread (used worker-side when a result is parked, where each worker
  /// pays its own in parallel).
  void pace_ipc(std::size_t bytes) const;

  /// Bytes pull() and push() moved across machines, each counted once.
  [[nodiscard]] std::uint64_t cross_machine_bytes() const {
    return cross_machine_bytes_;
  }

 private:
  /// Blocks the calling thread for one call moving `bytes` to or from `machine`.
  void call(std::uint16_t machine, std::size_t bytes);

  const RpcConfig config_;
  Pacer caller_;  ///< the calling thread, which each call occupies in full
  std::uint64_t cross_machine_bytes_ = 0;
};

/// Synchronous chunked transfer a la gRPC streaming with per-chunk
/// flow-control acknowledgement — the transport underneath the Reverb-style
/// buffer server. Sleeps the calling thread for the full simulated duration.
/// Defaults are calibrated to Reverb's measured effective insert rate
/// (paper Table 1: 13.8 MB took 12.6 s through Launchpad+Reverb, i.e.
/// ~1-2 MB/s end to end): 16 KB chunks each costing a 5 ms rate-limited
/// round trip.
struct ChunkedTransferConfig {
  std::size_t chunk_bytes = 16 * 1024;
  double bandwidth_bytes_per_sec = 2e9;   ///< loopback gRPC goodput
  std::int64_t per_chunk_rtt_ns = 5'000'000;  ///< flow-control ack round trip
};

void chunked_transfer_delay(std::size_t bytes, const ChunkedTransferConfig& config);

}  // namespace xt::baselines
