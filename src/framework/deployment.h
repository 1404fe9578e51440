#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/broker.h"
#include "common/stats.h"
#include "compress/weight_codec.h"
#include "framework/supervisor.h"
#include "netsim/paced_pipe.h"
#include "netsim/reliable_link.h"
#include "obs/critical_path.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace xt {

/// Telemetry knobs for a runtime (paper-style "collect and visualize"
/// duties of the center controller, made first-class).
struct ObservabilityConfig {
  /// Record message-lifecycle + app spans into the runtime's TraceCollector.
  bool tracing = false;
  /// Ring capacity when tracing (oldest spans are overwritten).
  std::size_t trace_capacity = TraceCollector::kDefaultCapacity;
  /// If non-empty, run() writes a Chrome trace_event JSON file here
  /// (load in Perfetto / chrome://tracing).
  std::string chrome_trace_path;
  /// If non-empty, run() writes the final Prometheus text dump here
  /// (the same text also lands in RunReport::prometheus).
  std::string prometheus_path;
  /// If > 0, run() logs a one-line stats summary this often (seconds).
  double stats_line_every_s = 0.0;
};

/// Continuous-profiling knobs (`[profile]` in the config file). The sampler
/// is cheap enough to leave on for whole runs: one background thread walks
/// every registered thread's annotated-scope stack at `hz` and a second
/// slower cadence reads queue/pool/link saturation into gauges.
struct ProfileConfig {
  bool enabled = false;
  /// Scope-stack sampling frequency. An odd (prime-ish) default avoids
  /// phase-locking with millisecond-periodic work.
  double hz = 97.0;
  /// Saturation-probe frequency (queue depths, pool backlog, link
  /// utilization). Cheaper to read but noisier; keep well below `hz`.
  double saturation_hz = 10.0;
  /// If non-empty, run() writes the combined profile artifact here
  /// (critical-path breakdown + per-thread profiles + final queue depths).
  std::string profile_json_path;
};

/// The C++ analogue of XingTian's deployment configuration file (paper
/// Section 3.2.2): which machines exist, how many explorers run on each,
/// and where the learner lives. Machine 0 hosts the center controller.
struct DeploymentConfig {
  /// explorers_per_machine[m] explorers run on machine m; the vector's size
  /// is the number of machines.
  std::vector<int> explorers_per_machine = {4};
  std::uint16_t learner_machine = 0;
  LinkConfig link;                 ///< cross-machine NIC characteristics
                                   ///< (incl. the chaos FaultPlan, link.faults)
  Broker::Options broker;          ///< compression / object-store options
  ObservabilityConfig obs;         ///< metrics / tracing / exporters
  ProfileConfig profile;           ///< sampling profiler + saturation gauges
  ReliabilityConfig reliability;   ///< ack/retransmit on cross-machine links
  SupervisionConfig supervision;   ///< heartbeats + worker respawn
  /// `[comm]` overload policy (watermarks, shed policy, breaker knobs).
  /// When bounded, the runtime applies it to broker queues, endpoint
  /// buffers, paced pipes, and the reliable links' circuit breakers.
  OverloadConfig overload;
  /// `[codec]` weight-broadcast codec + lazy-broadcast policy (DESIGN.md
  /// §11). Applied to the learner's publish path and every explorer's
  /// apply path.
  WeightSyncConfig weight_sync;

  /// If non-empty, the learner checkpoints its weights here (atomic write)
  /// and a learner respawn restores from the latest good checkpoint.
  std::string checkpoint_path;
  /// Weight versions between checkpoint saves.
  std::uint32_t checkpoint_every_versions = 25;

  /// Compute-thread count for the NN kernels (`[compute] threads`):
  /// -1 = auto (hardware_concurrency), 0 = serial scalar-reference kernels
  /// (bit-exact with pre-pool runs, the deterministic-tests mode), N = a
  /// shared pool of N compute threads. Applied process-wide at runtime
  /// construction (the pool is shared across all workers of the process).
  int compute_threads = -1;

  /// Bound on each explorer's send buffer (0 = unbounded). A bounded buffer
  /// gives the same backpressure as the Python system's fixed-size plasma
  /// store: an explorer that outruns the channel blocks instead of queueing
  /// unbounded rollout bodies.
  std::size_t explorer_send_capacity = 0;

  // --- training goal (the center controller stops the run when met) ---
  std::uint64_t max_steps_consumed = 100'000;  ///< 0 = unlimited
  double max_seconds = 0.0;                    ///< 0 = unlimited
  double target_return = 0.0;                  ///< 0 = disabled
  int target_return_window = 20;               ///< episodes averaged for goal

  /// Explorers report stats to the center controller this often (episodes).
  int stats_every_episodes = 1;

  /// If non-empty, the center controller appends every received statistics
  /// record to this CSV file (t_seconds,source,key,value) — the paper's
  /// "collects and visualizes statistics" role (Section 3.2.2).
  std::string stats_csv_path;

  /// Summed in 64 bits: the parser bounds each entry only by `int`.
  [[nodiscard]] std::int64_t total_explorers() const {
    std::int64_t total = 0;
    for (int n : explorers_per_machine) total += n;
    return total;
  }
};

/// Everything a run hands back — enough to regenerate every series the
/// paper's evaluation plots (throughput over time, latency decomposition,
/// wait-time CDF, convergence).
struct RunReport {
  std::uint64_t steps_consumed = 0;
  int training_sessions = 0;
  double wall_seconds = 0.0;

  // Convergence.
  double avg_episode_return = 0.0;  ///< mean over the final window
  std::uint64_t episodes = 0;

  // Throughput (steps consumed by the learner per second).
  double avg_throughput = 0.0;
  std::vector<ThroughputSeries::Point> throughput_series;

  // Latency decomposition, milliseconds (paper Figs. 8-10 (b)). Derived
  // from the runtime's telemetry histograms (see DESIGN.md "Observability").
  double mean_transmission_ms = 0.0;  ///< rollout message created -> recv buffer
  double mean_wait_ms = 0.0;          ///< learner blocked awaiting rollouts
  double mean_train_ms = 0.0;         ///< one training session
  double mean_rollout_ms = 0.0;       ///< explorer time producing one batch
  /// Replay sampling latency per session (DQN only; 0 otherwise) — the
  /// learner-local vs replay-actor contrast of paper Fig. 9(b).
  double mean_replay_sample_ms = 0.0;
  /// Compute-kernel attribution (from `xt_gemm_ms` / `xt_gemm_flops_total`):
  /// how much of train/rollout time is matmul, and how much arithmetic the
  /// run performed. Split by role via the labeled series in `prometheus`.
  double mean_gemm_ms = 0.0;        ///< mean wall time per matmul call
  std::uint64_t gemm_flops = 0;     ///< total multiply-add flops (2mnk sums)
  std::vector<std::pair<double, double>> wait_cdf;  ///< (ms, fraction)

  // Communication volume.
  std::uint64_t rollout_messages = 0;
  std::uint64_t rollout_bytes = 0;
  std::uint64_t weight_broadcasts = 0;
  /// Weight updates actually applied by explorers — the proof that
  /// weights-class traffic still lands when experience is being shed.
  std::uint64_t weights_applied = 0;

  // Weight-codec layer (DESIGN.md §11; all zero pre-codec behavior when
  // `[codec]` is left at fp32 with lazy broadcast off).
  std::uint64_t weights_wire_bytes = 0;  ///< encoded weight-frame bytes published
  std::uint64_t weights_raw_bytes = 0;   ///< fp32-equivalent bytes per encode attempt
  std::uint64_t weights_skipped = 0;     ///< versions lazily not broadcast
  std::uint64_t weights_keyframes = 0;   ///< standalone frames published
  std::uint64_t weights_keyframe_requests = 0;  ///< explorer fallback requests served
  std::uint64_t weights_decode_failures = 0;    ///< corrupt frames rejected
  /// p99 of learner publish -> explorer apply (xt_weights_broadcast_ms,
  /// merged across every explorer's histogram).
  double weights_broadcast_p99_ms = 0.0;

  // Robustness (chaos fabric + supervision; all zero in a healthy run).
  std::uint64_t faults_injected = 0;    ///< drops+corruptions+delays+blackouts
  std::uint64_t frames_corrupted = 0;   ///< CRC rejects at broker ingress
  std::uint64_t retransmits = 0;        ///< reliable-link re-sends
  std::uint64_t heartbeats_missed = 0;  ///< supervision timeout events
  std::uint64_t worker_restarts = 0;    ///< total respawns
  std::uint64_t explorer_restarts = 0;
  std::uint64_t learner_restarts = 0;   ///< each restored from checkpoint
  std::uint64_t degraded_workers = 0;   ///< abandoned after restart budget

  // Overload model (all zero when the run never hit a watermark).
  std::uint64_t messages_shed = 0;      ///< experience shed by bounded queues
  std::uint64_t frames_shed = 0;        ///< experience frames shed at pipes
  std::uint64_t breaker_opens = 0;      ///< link circuit-breaker trips
  std::uint64_t workers_suspected = 0;  ///< silence episodes (suspect state)
  std::uint64_t respawns_suppressed = 0;  ///< rate-limited respawn attempts

  // Bottleneck attribution (filled when tracing / profiling were enabled).
  /// Per-stage latency breakdown over every traced message lifecycle
  /// (paper Fig. 7's serialize/transmit/deserialize bars, generalized).
  CriticalPathReport critical_path;
  /// Stage with the largest share of end-to-end latency ("" if no traced
  /// lifecycles completed). Duplicate of critical_path.dominant_stage for
  /// one-line access.
  std::string dominant_stage;
  /// Per-thread busy% and self-time per annotated scope from the sampling
  /// profiler (empty unless profile.enabled).
  std::vector<ThreadProfile> thread_profiles;

  /// Full Prometheus text-format dump of the run's metrics registry.
  std::string prometheus;
};

}  // namespace xt
