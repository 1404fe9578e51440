#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "comm/broker.h"
#include "netsim/paced_pipe.h"
#include "netsim/reliable_link.h"

namespace xt {

/// Wires brokers on different simulated machines together with full-duplex
/// paced links, forming the data-transmission fabric of paper Fig. 2(b).
/// The controller establishes these routes during initialization; the
/// machine hosting the learner is the natural center of traffic.
///
/// Every chunk of a message crossing a link travels as its own WireFrame
/// (DESIGN.md §9): one control segment (the encoded header) plus the
/// chunk's byte range of the body as a shared scatter-gather segment — the
/// body buffer on the wire is the same object-store allocation the sender's
/// workhorse produced. The far broker reassembles the chunks.
///
/// When the link's FaultPlan is enabled every outgoing frame carries a
/// chained CRC over both segments so corruption is caught at the far side —
/// a corrupted frame rejects its chunk exactly once, so its body never
/// completes. With reliability
/// enabled each direction gets a ReliableChannel layered on its pipe (frame
/// seq numbers, one ack per frame over the reverse pipe, retransmit with
/// capped exponential backoff). With faults and reliability off, the wiring
/// is the zero-overhead path the benchmarks measure.
class Fabric {
 public:
  explicit Fabric(LinkConfig default_link = {},
                  ReliabilityConfig reliability = {});
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Create a bidirectional link between two brokers and install the
  /// corresponding remote sinks. Brokers must outlive the fabric or stop()
  /// must be called before they are destroyed.
  void connect(Broker& a, Broker& b);
  void connect(Broker& a, Broker& b, LinkConfig link);

  /// Stop all channels and pipes (idempotent). Call before destroying the
  /// brokers.
  void stop();

  /// Total bytes moved across all links (both directions).
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Access individual pipes for per-link diagnostics.
  [[nodiscard]] std::vector<const PacedPipe*> pipes() const;

  /// Reliable channels, one per direction (empty when reliability is off).
  [[nodiscard]] std::vector<const ReliableChannel*> channels() const;

 private:
  PacedPipe* make_pipe(Broker& from, Broker& to, const LinkConfig& link);
  void connect_one_way(Broker& from, Broker& to, const LinkConfig& link,
                       PacedPipe* data_pipe, PacedPipe* ack_pipe);

  const LinkConfig default_link_;
  const ReliabilityConfig reliability_;
  mutable std::mutex mu_;
  // Destruction order matters: pipe delivery closures reference the
  // channels, so pipes_ is declared last (destroyed first).
  std::vector<std::unique_ptr<ReliableChannel>> channels_;
  std::vector<std::unique_ptr<PacedPipe>> pipes_;
};

}  // namespace xt
