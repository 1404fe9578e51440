#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/blocking_queue.h"
#include "comm/overload.h"
#include "netsim/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xt {

/// Link characteristics. The default bandwidth is the measured NIC
/// bandwidth between the paper's machines (118.04 MB/s over 1 GbE, Fig. 5),
/// so cross-machine experiments are paced exactly like the testbed.
struct LinkConfig {
  double bandwidth_bytes_per_sec = 118.04e6;
  std::int64_t latency_ns = 100'000;      ///< propagation delay per frame
  std::size_t frame_overhead_bytes = 128; ///< header/framing cost per message
  /// Chaos schedule for this link (disabled by default). When enabled the
  /// pipe drops/corrupts/delays frames per the seeded plan.
  FaultPlan faults;
  /// Overload policy for the transmit queue (watermarks in frames). Default
  /// = unbounded; when bounded, experience frames are shed at the high
  /// watermark while control (heartbeats, acks, commands) always queues —
  /// the priority lanes that keep supervision live past link capacity.
  OverloadConfig overload;
};

/// One direction of a simulated NIC, paced in real wall-clock time at the
/// configured bandwidth. Propagation is pipelined the way a real link
/// overlaps it: the transmit thread holds the wire only for a frame's
/// serialization time, then hands the frame to a FIFO delay line, and the
/// pipe's delivery thread runs the delivery action `latency_ns` later while
/// the wire already carries the next frame. Frames are delivered in order —
/// none overtakes an earlier one — so delivery actions must not block: a
/// slow one holds back every frame behind it.
///
/// With an enabled FaultPlan the pipe becomes a lossy link: dropped and
/// blacked-out frames still consume send-side bandwidth but never deliver,
/// corrupted frames deliver with `FaultOutcome::corrupt` set (the consumer
/// applies the byte flip — bodies are immutable shared payloads), and
/// latency spikes stretch one frame's propagation delay, holding back the
/// frames behind it without idling the link.
class PacedPipe {
 public:
  /// Delivery callback; the outcome describes faults injected into this
  /// frame (never a drop — dropped frames are simply not delivered).
  using FaultableDeliver = std::function<void(const FaultOutcome&)>;
  /// Runs on the transmit thread when the frame stops waiting in the queue:
  /// as the link starts serializing it, or as the overload policy sheds it.
  /// A reliable link arms its retransmit timer here, so time spent queued
  /// behind other frames never reads as a loss.
  using StartHook = std::function<void()>;

  /// Optional telemetry: the `pipe.transmit` lifecycle span plus bytes/
  /// frames-on-wire metrics and injected-fault counters. All pointers may
  /// be null.
  struct Observability {
    TraceCollector* trace = nullptr;
    /// Serialization start to far-end delivery (with the `pipe.transmit`
    /// span, recorded at delivery; dropped frames record neither).
    Histogram* transmit_ms = nullptr;
    Counter* wire_bytes = nullptr;
    Counter* frames = nullptr;
    Counter* faults_dropped = nullptr;
    Counter* faults_corrupted = nullptr;
    Counter* faults_delayed = nullptr;
    Counter* faults_blackout = nullptr;
    Counter* frames_shed = nullptr;  ///< experience shed at the high watermark
    std::uint32_t pid = 0;             ///< span process group (source machine)
  };

  PacedPipe(std::string name, LinkConfig config);
  PacedPipe(std::string name, LinkConfig config, Observability obs);
  ~PacedPipe();

  PacedPipe(const PacedPipe&) = delete;
  PacedPipe& operator=(const PacedPipe&) = delete;

  /// Queue a frame of `wire_bytes` for transmission; `deliver` runs on the
  /// delivery thread once the simulated transfer completes. `trace_id`
  /// labels the frame's `pipe.transmit` span (0 = untraced). Returns false
  /// after stop().
  /// Under an enabled FaultPlan the frame may be dropped (deliver never
  /// runs); corruption is invisible through this overload.
  bool send(std::size_t wire_bytes, std::function<void()> deliver,
            std::uint64_t trace_id = 0);

  /// Fault-aware send: `deliver` receives the injected-fault outcome so the
  /// consumer can apply corruption. Dropped frames are still never
  /// delivered. `cls` picks the priority lane: control frames jump the
  /// queue and are never shed; with a bounded overload config, experience
  /// frames past the high watermark are shed (deliver never runs) — this
  /// call never blocks the caller, which may be a router or retransmit
  /// thread that must not stall on a congested link.
  bool send_faultable(std::size_t wire_bytes, FaultableDeliver deliver,
                      std::uint64_t trace_id = 0,
                      TrafficClass cls = TrafficClass::kExperience,
                      StartHook on_start = nullptr);

  /// Drain and stop (idempotent): the transmit queue is paced out, then
  /// every frame in flight is delivered at its due time.
  void stop();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t bytes_transferred() const {
    return bytes_transferred_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_transferred() const {
    return frames_transferred_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_shed() const {
    return frames_shed_.load(std::memory_order_relaxed);
  }
  /// Frames waiting for the wire (not those already propagating).
  [[nodiscard]] std::size_t queued_frames() const { return queue_.size(); }

 private:
  struct Frame {
    std::size_t wire_bytes;
    FaultableDeliver deliver;
    std::uint64_t trace_id;
    StartHook on_start;
  };

  /// A frame off the wire, propagating toward the far end.
  struct InFlight {
    Frame frame;
    FaultOutcome outcome;
    std::int64_t start_ns;  ///< serialization start
    std::int64_t due_ns;    ///< far-end delivery time
  };

  void transmit_loop();
  void delivery_loop();

  const std::string name_;
  const LinkConfig config_;
  const Observability obs_;
  std::unique_ptr<FaultInjector> injector_;  ///< transmit thread only
  ClassedQueue<Frame> queue_;
  /// The delay line. Unbounded: deliver actions never block, so it holds at
  /// most about latency / minimum serialization time frames.
  BlockingQueue<InFlight> in_flight_;
  std::atomic<std::uint64_t> bytes_transferred_{0};
  std::atomic<std::uint64_t> frames_transferred_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> frames_shed_{0};
  std::thread transmitter_;
  std::thread deliverer_;
};

}  // namespace xt
