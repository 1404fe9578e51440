#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "algo/interfaces.h"
#include "comm/endpoint.h"
#include "common/stats.h"
#include "compress/weight_codec.h"
#include "framework/checkpoint.h"
#include "framework/deployment.h"
#include "framework/supervisor.h"

namespace xt {

/// The learner process of paper Fig. 2(a): the trainer thread consumes
/// rollout messages that the asynchronous channel has already staged in the
/// receive buffer, trains, and hands weight broadcasts to the sender thread.
///
/// Instrumented for the paper's Figs. 8-10: per-session wait time (how long
/// the trainer actually blocked for rollouts), training time, and rollout
/// transmission latency (message creation -> receive buffer).
class LearnerProcess {
 public:
  /// `initial_steps` seeds the steps-consumed counter — nonzero when this
  /// learner replaces a dead one restored from a checkpoint, so the training
  /// goal does not restart from zero.
  LearnerProcess(NodeId node, Broker& broker, std::unique_ptr<Algorithm> algorithm,
                 std::vector<NodeId> explorers, NodeId controller,
                 const DeploymentConfig& config, std::uint64_t initial_steps = 0);
  ~LearnerProcess();

  LearnerProcess(const LearnerProcess&) = delete;
  LearnerProcess& operator=(const LearnerProcess&) = delete;

  /// Start the trainer thread, whose first act is the start-up weights
  /// broadcast. Call it exactly once, after every explorer endpoint of the
  /// run exists, so that broadcast reaches them all.
  void start();
  void request_stop();
  void shutdown();

  /// Fault injection: the trainer thread exits silently mid-loop, like a
  /// killed OS process. The supervisor's respawn restores from checkpoint.
  void inject_crash();
  [[nodiscard]] bool crashed() const { return crashed_.load(); }

  /// Checkpoints written by this learner instance.
  [[nodiscard]] std::uint32_t checkpoints_written() const {
    return checkpoints_.load();
  }

  [[nodiscard]] std::uint64_t steps_consumed() const { return steps_consumed_.load(); }
  [[nodiscard]] int training_sessions() const { return sessions_.load(); }
  [[nodiscard]] std::uint64_t weight_broadcasts() const { return broadcasts_.load(); }
  [[nodiscard]] std::uint64_t rollout_messages() const { return rollout_messages_.load(); }
  [[nodiscard]] std::uint64_t rollout_bytes() const { return rollout_bytes_.load(); }

  /// Serialized policy snapshot. Only safe after shutdown() (the trainer
  /// thread owns the algorithm while running). Used by PBT to clone the
  /// best population's weights.
  [[nodiscard]] Bytes snapshot_weights() const { return algorithm_->weights(); }

  /// Read-only view of the algorithm (e.g. replay sampling latency).
  [[nodiscard]] const Algorithm& algorithm() const { return *algorithm_; }

  [[nodiscard]] const ThroughputSeries& throughput() const { return throughput_; }
  [[nodiscard]] const LatencyRecorder& wait_times_ms() const { return wait_ms_; }
  [[nodiscard]] const LatencyRecorder& transmission_ms() const { return transmission_ms_; }

 private:
  void trainer_loop();
  bool ingest(Message message);  ///< returns false on a stop command
  void broadcast_weights(const std::vector<std::uint32_t>& respond_to,
                         bool force = false);
  /// Keyframe-request fallback: ship a standalone frame to one explorer.
  void send_keyframe(const NodeId& dst);

  const NodeId node_;
  const NodeId controller_;
  std::vector<NodeId> explorers_;  ///< indexed by global explorer index

  Endpoint endpoint_;
  std::unique_ptr<Algorithm> algorithm_;
  std::unique_ptr<Heartbeater> heartbeat_;     ///< trainer thread only
  std::unique_ptr<Checkpointer> checkpointer_; ///< trainer thread only

  // Weight codec (DESIGN.md §11). The encoder session is trainer-thread
  // only; the series it records into are thread-safe registry handles.
  WeightEncoderSession encoder_;
  /// Lazy skipping deadlocks algorithms whose explorers block on every
  /// version (PPO); resolved once from the algorithm.
  bool force_every_broadcast_ = false;

  // Telemetry: the wait and train histograms (exported via Prometheus / the
  // runtime stats line; RunReport reads its train time from train_hist_)
  // plus "app"-category trace spans. Raw samples are kept only where a
  // report needs them (the recorders below).
  TraceCollector* trace_;
  MetricsRegistry& metrics_;
  Histogram& wait_hist_;
  Histogram& train_hist_;
  Counter& keyframe_requests_counter_;  ///< kWeightsReq fallbacks served

  std::atomic<bool> stop_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint64_t> steps_consumed_{0};
  std::atomic<std::uint32_t> checkpoints_{0};
  std::atomic<int> sessions_{0};
  std::atomic<std::uint64_t> broadcasts_{0};
  std::atomic<std::uint64_t> rollout_messages_{0};
  std::atomic<std::uint64_t> rollout_bytes_{0};

  ThroughputSeries throughput_{1.0};
  LatencyRecorder wait_ms_;          ///< RunReport.wait_cdf (Fig. 8(c))
  LatencyRecorder transmission_ms_;  ///< rollout latency quantiles (xt_bench)
  std::uint32_t last_broadcast_version_ = 0;
  int trains_since_broadcast_ = 0;

  std::thread trainer_;
};

}  // namespace xt
