#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "algo/rollout.h"
#include "common/bytes.h"
#include "obs/metrics.h"

namespace xt {

/// The learner-side half of the paper's Section 4.2 interface quartet.
/// Researchers implement `prepare_data` (how received rollouts are
/// organized — replay-buffer maintenance happens here if the algorithm
/// needs one) and `train` (one DNN-update session).
///
/// The framework drives it: every received rollout message is fed through
/// prepare_data, and train() runs whenever ready_to_train() says so.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// Ingest one received rollout batch.
  virtual void prepare_data(RolloutBatch batch) = 0;

  /// True when enough data has been prepared for one training session.
  [[nodiscard]] virtual bool ready_to_train() const = 0;

  struct TrainResult {
    std::size_t steps_consumed = 0;  ///< rollout steps used (throughput unit)
    std::map<std::string, double> stats;
    /// Explorers to send the refreshed weights to; empty = all of them.
    /// IMPALA replies exactly to the explorers whose rollouts it consumed
    /// (paper Section 2.1 / Fig. 1(c)).
    std::vector<std::uint32_t> respond_to;
  };

  /// One training session. Only called when ready_to_train().
  virtual TrainResult train() = 0;

  /// Serialized weights of the current policy, for broadcast to explorers.
  [[nodiscard]] virtual Bytes weights() const = 0;

  /// Monotone version, bumped by train(); lets explorers skip stale
  /// broadcasts and lets on-policy algorithms match rollouts to weights.
  [[nodiscard]] virtual std::uint32_t weights_version() const = 0;

  /// How often (in training sessions) the learner broadcasts weights.
  [[nodiscard]] virtual int broadcast_interval() const { return 1; }

  /// True when this algorithm's explorers block until every new weights
  /// version arrives (on-policy agents whose requires_fresh_weights() is
  /// true, e.g. PPO). The learner must then bypass lazy-broadcast skipping:
  /// a skipped version would deadlock the pipeline — explorers wait for a
  /// version the learner decided not to ship, while the learner waits for
  /// their rollouts.
  [[nodiscard]] virtual bool explorers_block_on_weights() const { return false; }

  /// Replace the policy parameters with a serialized snapshot (PBT clones
  /// the best population's DNN weights into a fresh population, paper
  /// Section 4.3; also the restore path for checkpoint-based fault
  /// tolerance). Returns false on architecture mismatch.
  virtual bool load_policy_weights(const Bytes& snapshot) {
    (void)snapshot;
    return false;
  }

  /// Per-training-session replay sampling latency in ms, if this algorithm
  /// maintains a replay buffer (the Fig. 9(b) "sample & transmission"
  /// series: local sampling in XingTian vs a replay actor behind RPC in the
  /// pull-based baseline). nullptr for algorithms without replay.
  [[nodiscard]] virtual const Histogram* replay_sample_latency() const {
    return nullptr;
  }
};

/// The explorer-side half: how to act and how to package env feedback.
/// Researchers implement `infer_action` and `handle_env_feedback`
/// (paper Section 4.2); the framework's rollout worker drives the loop.
class Agent {
 public:
  virtual ~Agent() = default;

  /// Choose an action for the current observation.
  [[nodiscard]] virtual std::int32_t infer_action(const std::vector<float>& observation) = 0;

  /// Record the environment's feedback for the last inferred action.
  virtual void handle_env_feedback(const std::vector<float>& observation,
                                   std::int32_t action, float reward, bool done,
                                   const std::vector<float>& next_observation) = 0;

  /// True when a rollout fragment is ready to ship to the learner.
  [[nodiscard]] virtual bool batch_ready() const = 0;

  /// Take the pending fragment (resets the internal accumulator).
  [[nodiscard]] virtual RolloutBatch take_batch() = 0;

  /// Apply a weights broadcast from the learner.
  virtual bool apply_weights(const Bytes& weights, std::uint32_t version) = 0;

  [[nodiscard]] virtual std::uint32_t weights_version() const = 0;

  /// On-policy agents must wait for fresh weights after shipping a batch
  /// (PPO); off-policy agents keep exploring with what they have.
  [[nodiscard]] virtual bool requires_fresh_weights() const { return false; }
};

}  // namespace xt
