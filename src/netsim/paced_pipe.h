#pragma once

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
  FaultPlan faults{};
  /// Overload policy for the transmit queue (watermarks in frames). Default
  /// = unbounded; when bounded, experience frames are shed at the high
  /// watermark while control (heartbeats, acks, commands) always queues —
  /// the priority lanes that keep supervision live past link capacity.
  OverloadConfig overload{};
};

/// One direction of a simulated NIC, paced in real wall-clock time at the
/// configured bandwidth. A frame holds the wire for its serialization time
/// from when the wire frees or when send() queued it, whichever is later,
/// so the link runs at its configured rate however late its threads wake.
/// Propagation is pipelined the way a real link overlaps it: the transmit
/// thread hands a serialized frame to a FIFO delay line, and the pipe's
/// delivery thread runs the delivery action `latency_ns` after the frame's
/// serialization ends, while the wire already carries the next frame.
/// Frames are delivered in order — none overtakes an earlier one — so
/// delivery actions must not block: a slow one holds back every frame behind
/// it.
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
  /// behind other frames never reads as a loss. Its own time overlaps the
  /// frame's serialization.
  using StartHook = std::function<void()>;

  /// The pipe registers its series, labeled `{link="<name>"}`, in `metrics`:
  /// `xt_pipe_transmit_ms` (serialization start to far-end delivery; dropped
  /// frames record nothing), `xt_pipe_wire_bytes_total` and
  /// `xt_pipe_frames_total` (every frame that occupied the wire, dropped or
  /// not), `xt_pipe_shutdown_drops_total` (frames stop() dropped from the
  /// queue), `xt_faults_injected_total{link,kind}` when the FaultPlan is
  /// enabled, and `xt_frames_shed_total` when the overload policy is
  /// bounded. With a `trace` collector each delivered frame records a
  /// `pipe.transmit` span in process group `pid` (the source machine).
  PacedPipe(std::string name, LinkConfig config, MetricsRegistry& metrics,
            TraceCollector* trace = nullptr, std::uint32_t pid = 0);
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

  /// Stop (idempotent): each frame still queued is dropped once, unpaced, its
  /// deliver action destroyed unrun, and counted in
  /// `xt_pipe_shutdown_drops_total`. The frame on the wire and every frame
  /// in flight still land at their due times.
  void stop();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  /// Bytes that occupied the wire: this link's `xt_pipe_wire_bytes_total`.
  [[nodiscard]] std::uint64_t wire_bytes() const { return wire_bytes_.value(); }
  /// Frames waiting for the wire (not those already propagating).
  [[nodiscard]] std::size_t queued_frames() const { return queue_.size(); }

 private:
  struct Frame {
    std::size_t wire_bytes;
    FaultableDeliver deliver;
    std::uint64_t trace_id;
    StartHook on_start;
    std::int64_t queued_ns;  ///< when send() queued it: the earliest it starts
  };

  /// A frame off the wire, propagating toward the far end.
  struct InFlight {
    Frame frame;
    FaultOutcome outcome;
    std::int64_t start_ns;  ///< serialization start
    std::int64_t due_ns;    ///< far-end delivery time
  };

  /// The fault schedule and the counters of what it injected; the pipe has
  /// one only when its FaultPlan is enabled.
  struct Faults {
    Faults(const FaultPlan& plan, MetricsRegistry& metrics,
           const std::string& link);
    /// Count one frame's outcome under its kind.
    void count(const FaultOutcome& outcome);

    FaultInjector injector;  ///< transmit thread only
    Counter& dropped;
    Counter& corrupted;
    Counter& delayed;
    Counter& blackout;
  };

  void transmit_loop();
  void delivery_loop();

  const std::string name_;
  const LinkConfig config_;
  TraceCollector* const trace_;
  const std::uint32_t pid_;
  Histogram& transmit_ms_;
  Counter& wire_bytes_;
  Counter& frames_;
  Counter& shutdown_drops_;
  /// Registered only under a bounded overload policy, the only one that sheds.
  Counter* const frames_shed_;
  const std::unique_ptr<Faults> faults_;
  ClassedQueue<Frame> queue_;
  /// The delay line. Unbounded: deliver actions never block, so it holds at
  /// most about latency / minimum serialization time frames.
  BlockingQueue<InFlight> in_flight_;
  std::thread transmitter_;
  std::thread deliverer_;
};

}  // namespace xt
