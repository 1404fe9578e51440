#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "netsim/paced_pipe.h"
#include "obs/metrics.h"

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
  LinkConfig link;
  /// Modeled serialize+copy bandwidth for moving bytes between logical
  /// processes (0 = unpaced). Must be set to the SAME value as the XingTian
  /// broker's ipc_bandwidth so only the communication model differs: here
  /// the cost lands on the *driver's* thread at pull time (and on the
  /// worker's thread at produce time), serializing it with computation.
  double ipc_bandwidth_bytes_per_sec = 0.0;
};

/// Synchronous byte transfers between the driver (always machine 0) and
/// workers. Local transfers pay dispatch + a real copy; remote transfers
/// additionally stream through a bandwidth-paced pipe. All of it blocks the
/// calling thread — the pull model's defining cost.
class RpcTransport {
 public:
  RpcTransport(std::uint16_t n_machines, RpcConfig config);
  ~RpcTransport();

  RpcTransport(const RpcTransport&) = delete;
  RpcTransport& operator=(const RpcTransport&) = delete;

  /// Pull `data` from `from_machine` to the driver; returns the delivered
  /// copy. Blocks for the full simulated transfer.
  [[nodiscard]] Bytes pull(std::uint16_t from_machine, const Bytes& data);

  /// Push `data` from the driver to `to_machine`; blocks likewise.
  void push(std::uint16_t to_machine, const Bytes& data);

  /// Pay the modeled local serialize/copy cost for `bytes` on the calling
  /// thread (used worker-side when a result is parked, and driver-side on
  /// every pull).
  void pace_ipc(std::size_t bytes) const;

  void stop();

  [[nodiscard]] std::uint64_t cross_machine_bytes() const;

 private:
  void blocking_pipe_transfer(PacedPipe& pipe, std::size_t bytes);

  const RpcConfig config_;
  /// The pipes' own series: a pull run reports only its `xt_pull_*` metrics.
  MetricsRegistry metrics_;
  std::vector<std::unique_ptr<PacedPipe>> to_driver_;    ///< index = machine
  std::vector<std::unique_ptr<PacedPipe>> from_driver_;  ///< index = machine
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
