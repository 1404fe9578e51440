#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "algo/interfaces.h"
#include "comm/endpoint.h"
#include "compress/weight_codec.h"
#include "envs/environment.h"
#include "framework/deployment.h"
#include "framework/supervisor.h"

namespace xt {

/// The explorer process of paper Fig. 2(a): a rollout worker thread driving
/// agent-environment interaction, flanked by the endpoint's sender/receiver
/// threads. The worker only performs local buffer reads/writes; rollout
/// serialization happens on the sender thread, and weight broadcasts arrive
/// pre-staged in the receive buffer — the communication-computation overlap.
class ExplorerProcess {
 public:
  /// `explorer_index` is global across machines; `node` carries the machine.
  /// A `respawned` explorer is built after the learner's start-up weights
  /// broadcast went out, so an on-policy one asks the learner for them.
  ExplorerProcess(NodeId node, std::uint32_t explorer_index, Broker& broker,
                  std::unique_ptr<Environment> env, std::unique_ptr<Agent> agent,
                  NodeId learner, NodeId controller, const DeploymentConfig& config,
                  bool respawned = false);
  ~ExplorerProcess();

  ExplorerProcess(const ExplorerProcess&) = delete;
  ExplorerProcess& operator=(const ExplorerProcess&) = delete;

  /// Ask the worker loop to finish (also triggered by a kCommand message).
  void request_stop();
  /// Join the worker and tear down the endpoint.
  void shutdown();

  /// Fault injection: simulate this worker dying. The worker thread exits
  /// silently — no farewell stats, no cleanup — exactly like a killed OS
  /// process; its endpoint lingers until the supervisor's respawn tears the
  /// whole object down.
  void inject_crash();
  [[nodiscard]] bool crashed() const { return crashed_.load(); }

 private:
  void worker_loop();
  /// Drain the receive buffer; apply the newest weights; honor commands.
  void drain_inbox();
  /// Decode one weights broadcast through the codec session; on a decode
  /// error or base-version miss, request a keyframe instead of crashing.
  void handle_weights(const Message& msg);
  void request_keyframe(std::uint32_t version);
  /// Block (heartbeating, honoring stop) until the agent holds weights newer
  /// than `version`.
  void await_weights_newer_than(std::uint32_t version);
  void ship_batch();
  void report_episode(double episode_return, std::uint64_t episode_steps);

  const NodeId node_;
  const std::uint32_t explorer_index_;
  const NodeId learner_;
  const NodeId controller_;
  const int stats_every_episodes_;
  const bool respawned_;

  Endpoint endpoint_;
  std::unique_ptr<Environment> env_;
  std::unique_ptr<Agent> agent_;
  std::unique_ptr<Heartbeater> heartbeat_;  ///< worker thread only

  // Telemetry (per-machine handles, resolved once at construction).
  TraceCollector* trace_;
  Histogram& rollout_hist_;      ///< time spent producing one rollout batch
  Histogram& wait_weights_hist_; ///< on-policy block for fresh weights
  Counter& env_steps_counter_;
  Counter& batches_counter_;
  Counter& weights_applied_counter_;  ///< broadcasts actually applied here
  Counter& weights_nack_counter_;     ///< keyframe requests sent upstream
  Histogram& broadcast_ms_hist_;      ///< weights created -> applied here
  MetricsRegistry& metrics_;     ///< kernel-telemetry binding for the worker
  std::int64_t rollout_start_ns_ = 0;  ///< worker thread only
  std::uint64_t env_steps_ = 0;        ///< worker thread only
  std::uint64_t episodes_ = 0;         ///< worker thread only

  // Weight codec (DESIGN.md §11); worker thread only.
  WeightDecoderSession decoder_;
  /// Acks feed the learner's delta-base bookkeeping; pointless for
  /// standalone codecs, so only base-referencing configs send them.
  bool send_weight_acks_ = false;
  /// One keyframe request per offending version, not one per frame.
  std::uint32_t last_nack_version_ = 0;
  bool nacked_any_ = false;

  std::atomic<bool> stop_{false};
  std::atomic<bool> crashed_{false};

  std::thread worker_;
};

}  // namespace xt
