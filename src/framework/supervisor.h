#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "comm/endpoint.h"
#include "comm/node_id.h"
#include "obs/metrics.h"

namespace xt {

/// Liveness / self-healing knobs (paper Section 4.2: checkpointing gives
/// "sufficient fault tolerance without significant overheads" — this layer
/// adds the detection and respawn half of that story).
struct SupervisionConfig {
  bool enabled = false;
  /// Workers send a heartbeat to the center controller this often.
  double heartbeat_every_s = 0.25;
  /// A worker silent for this long is declared dead and respawned.
  double heartbeat_timeout_s = 1.5;
  /// After this many restarts a worker is abandoned (degraded mode): the
  /// run continues with the workers that remain.
  std::uint32_t max_restarts_per_worker = 3;
  /// A silent worker becomes *suspect* at the heartbeat timeout and is only
  /// declared dead after this additional grace (0 = declare immediately,
  /// the legacy behaviour). While the congestion probe reports overload the
  /// grace clock keeps restarting: a worker silenced by a saturated link is
  /// indistinguishable from a dead one, and respawning it makes overload
  /// worse, not better.
  double suspect_grace_s = 0.0;
  /// Minimum interval between respawn attempts of the same worker (0 = no
  /// limit). Suppressed attempts count toward xt_respawns_suppressed_total
  /// instead of burning the restart budget in one scan loop.
  double respawn_min_interval_s = 0.0;
};

/// Owned by a workhorse thread: rate-limits kHeartbeat beacons toward the
/// center controller. tick() is called from the worker's main loop (and its
/// internal wait loops) and sends at most one beacon per interval; an empty
/// body keeps the cost to one header through the channel.
class Heartbeater {
 public:
  Heartbeater(Endpoint& endpoint, NodeId self, NodeId controller,
              double every_s);

  /// Send a beacon if the interval elapsed. Non-blocking (drops the beacon
  /// if the send buffer is full — the next tick retries).
  void tick();

 private:
  Endpoint& endpoint_;
  const NodeId self_;
  const NodeId controller_;
  const std::int64_t every_ns_;
  std::int64_t last_sent_ns_ = 0;
};

/// The center controller's failure detector (runs on the controller
/// thread, no locking): tracks the last heartbeat per watched worker,
/// declares silent workers dead, and invokes their respawn callbacks.
/// A worker that keeps dying past its restart budget is abandoned and the
/// run degrades gracefully instead of thrashing.
class Supervisor {
 public:
  /// The callback rebuilds the dead worker (attempt number passed for
  /// logging); returns false if the respawn itself failed (e.g. the runtime
  /// is already shutting down), which does not consume a restart.
  using RespawnFn = std::function<bool(std::uint32_t attempt)>;

  /// Evidence that silence may be congestion, not death: any open link
  /// breaker, or any comm queue / pipe backlog at its high watermark.
  /// Consulted before declaring a suspect dead.
  using CongestionProbe = std::function<bool()>;

  Supervisor(SupervisionConfig config, MetricsRegistry& metrics);

  /// Install the congestion probe (called from the controller thread only,
  /// like every other method here).
  void set_congestion_probe(CongestionProbe probe);

  /// Start watching a worker; its liveness clock starts now.
  void watch(NodeId id, RespawnFn respawn);

  /// Record liveness evidence (controller thread, on any message receipt
  /// from a watched worker). `produced_ns` is the message's creation
  /// timestamp: liveness is keyed to when the worker last *produced*
  /// traffic, not when the fabric got around to delivering it — a backlog
  /// of stale messages draining after a crash must not counterfeit a live
  /// worker. Pass 0 to fall back to receipt time.
  void note_heartbeat(const NodeId& id, std::int64_t produced_ns = 0);

  /// Scan for stalled workers and respawn them. Call periodically from the
  /// controller loop.
  void poll();

  /// Respawns by role; `xt_worker_restarts_total` counts them all.
  [[nodiscard]] std::uint64_t explorer_restarts() const {
    return explorer_restarts_;
  }
  [[nodiscard]] std::uint64_t learner_restarts() const {
    return learner_restarts_;
  }
  /// Workers abandoned after exhausting their restart budget.
  [[nodiscard]] std::uint64_t degraded() const { return degraded_; }

 private:
  struct Watched {
    RespawnFn respawn;
    std::int64_t last_beat_ns = 0;
    std::uint32_t restarts = 0;
    bool degraded = false;
    /// When this silence episode entered the suspect state (0 = not
    /// suspect). Slides forward while the congestion probe reports overload
    /// so the grace clock only runs against a healthy fabric.
    std::int64_t suspect_since_ns = 0;
    std::int64_t last_respawn_ns = 0;
    bool suppression_counted = false;  ///< once per suppressed episode
  };

  const SupervisionConfig config_;
  Counter& restarts_;
  Counter& suspects_;
  Counter& suppressed_;
  CongestionProbe congestion_probe_;
  std::unordered_map<NodeId, Watched> watched_;
  std::uint64_t explorer_restarts_ = 0;
  std::uint64_t learner_restarts_ = 0;
  std::uint64_t degraded_ = 0;
};

}  // namespace xt
