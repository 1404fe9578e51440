#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "comm/broker.h"
#include "comm/message.h"
#include "netsim/paced_pipe.h"
#include "obs/metrics.h"
#include "serial/wire_format.h"

namespace xt {

/// Tuning for the per-link ack/retransmit protocol.
struct ReliabilityConfig {
  bool enabled = false;
  double rto_ms = 50.0;        ///< initial retransmission timeout
  double backoff = 2.0;        ///< RTO multiplier per retry
  double max_rto_ms = 2000.0;  ///< RTO cap
  std::uint32_t max_retries = 12;  ///< then the frame is abandoned
  std::size_t ack_wire_bytes = 16; ///< modeled size of an ack frame
  /// Circuit breaker: this many *consecutive* retransmit give-ups open the
  /// link (0 = disabled, the historical retransmit-forever behaviour).
  /// An open link sheds non-control traffic instead of feeding a dead pipe;
  /// control frames keep flowing as natural probes, and the first ack from
  /// the far side closes the breaker.
  std::uint32_t breaker_failures = 0;
  /// How long an open breaker waits before re-admitting one non-control
  /// frame as a half-open probe.
  double breaker_probe_ms = 250.0;
};

/// Circuit-breaker state of one link direction, exported as
/// `xt_link_state{link=...}` (the gauge holds the enum value).
enum class LinkState : std::uint8_t {
  kClosed = 0,    ///< healthy: all traffic flows
  kOpen = 1,      ///< tripped: non-control traffic is shed
  kHalfOpen = 2,  ///< probing: one non-control frame in flight
};

[[nodiscard]] const char* link_state_name(LinkState state);

/// One direction of a reliable cross-machine link, layered on a lossy
/// PacedPipe. The unit of the protocol is the *wire frame* (one chunk of a
/// message): every frame carries a sequence number and a chained CRC over
/// its control + body segments; the receiving side acks each intact frame
/// over the reverse pipe (so acks themselves can be lost or corrupted),
/// dedups retransmitted ones, and a dedicated retransmitter thread re-sends
/// anything unacked past its deadline with capped exponential backoff. A
/// frame's timer starts when the pipe starts serializing it, not when it is
/// queued, so a frame waiting behind others is never resent for the wait. A
/// corrupted frame fails decode, is rejected, and is repaired by the
/// retransmit its withheld ack triggers. The router thread only ever
/// enqueues onto the pipe — it never blocks on the protocol.
///
/// Frames that exhaust max_retries are abandoned (counted as give-ups):
/// in a DRL workload every stream is either redundant (rollouts — the
/// learner trains on whatever arrives) or superseded (weights, heartbeats
/// — a newer copy is already on the way), so bounded effort beats an
/// ever-growing retransmit queue.
class ReliableChannel {
 public:
  /// Sends one ack frame carrying `seq` back to the transmitting side (over
  /// the reverse pipe, so it shares that direction's fault plan).
  using AckSender = std::function<void(std::uint64_t seq)>;

  struct Instruments {
    Counter* retransmits = nullptr;  ///< xt_retransmits_total{link=...}
    Counter* give_ups = nullptr;
    Counter* duplicates = nullptr;   ///< retransmitted frames already seen
    Counter* acks = nullptr;
    Gauge* link_state = nullptr;     ///< xt_link_state{link=...} (LinkState)
    Counter* breaker_opens = nullptr;   ///< closed/half-open -> open edges
    Counter* breaker_shed = nullptr;    ///< frames shed by an open breaker
  };

  ReliableChannel(std::string name, ReliabilityConfig config,
                  PacedPipe& data_pipe, Broker& receiver, Instruments inst);
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Must be installed during fabric wiring, before any traffic flows.
  void set_ack_sender(AckSender sender);

  /// Transmit one chunk of a message reliably. Called from the sending
  /// broker's router thread: builds the CRC-stamped wire frame, stamps its
  /// seq, tracks it for retransmission, and enqueues it on the pipe
  /// (non-blocking).
  void send(const MessageHeader& header, Payload body);

  /// An ack received from the far side; forgets the pending frame.
  void on_ack(std::uint64_t seq);

  /// Stop the retransmitter thread (idempotent). Pending frames are
  /// abandoned.
  void stop();

  [[nodiscard]] std::uint64_t retransmits() const {
    return inst_.retransmits != nullptr ? inst_.retransmits->value() : 0;
  }
  [[nodiscard]] std::uint64_t give_ups() const {
    return inst_.give_ups != nullptr ? inst_.give_ups->value() : 0;
  }
  [[nodiscard]] std::size_t pending() const;

  /// Breaker state of this direction (kClosed when the breaker is disabled).
  [[nodiscard]] LinkState state() const;
  [[nodiscard]] std::uint64_t breaker_opens() const {
    return inst_.breaker_opens != nullptr
               ? static_cast<std::uint64_t>(inst_.breaker_opens->value())
               : 0;
  }

 private:
  struct Pending {
    WireFrame frame;
    std::int64_t deadline_ns = 0;
    std::int64_t rto_ns = 0;
    std::uint32_t retries = 0;
  };

  void transmit(std::uint64_t seq, const WireFrame& frame);
  /// Start the retransmit timer of a pending frame; runs on the pipe's
  /// transmit thread as the frame's serialization starts.
  void arm(std::uint64_t seq);
  /// Breaker admission for one outgoing frame (mu_ held). Returns false when
  /// the frame must be shed (open breaker, non-control).
  [[nodiscard]] bool breaker_admit_locked(const WireFrame& frame,
                                          std::int64_t now);
  void set_state_locked(LinkState state);
  /// One give-up observed (mu_ held): trips the breaker after
  /// breaker_failures consecutive ones, dropping pending non-control frames.
  void note_give_up_locked(std::int64_t now);
  /// Runs on the data pipe's delivery thread when a frame survives the wire.
  void deliver(std::uint64_t seq, const WireFrame& frame,
               const FaultOutcome& outcome);
  void send_ack(std::uint64_t seq);
  void retransmit_loop();

  const std::string name_;
  const ReliabilityConfig config_;
  PacedPipe& pipe_;
  Broker& receiver_;
  const Instruments inst_;
  AckSender ack_sender_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Pending> pending_;  ///< ordered: oldest seq first
  std::uint64_t next_seq_ = 1;
  bool stopping_ = false;

  // Circuit breaker (mu_): consecutive give-ups trip it open; an ack closes
  // it; a timed half-open window admits one non-control probe.
  LinkState state_ = LinkState::kClosed;
  std::uint32_t consecutive_give_ups_ = 0;
  std::int64_t probe_deadline_ns_ = 0;
  bool probe_in_flight_ = false;

  // Receiver-side dedup: everything <= floor was delivered, plus the
  // out-of-order set above it.
  std::mutex recv_mu_;
  std::uint64_t recv_floor_ = 0;
  std::unordered_set<std::uint64_t> recv_seen_;

  std::thread retransmitter_;
};

}  // namespace xt
