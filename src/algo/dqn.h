#pragma once

#include <deque>
#include <memory>

#include "algo/interfaces.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "replay/prioritized_replay.h"
#include "replay/replay_buffer.h"

namespace xt {

/// Hyperparameters for DQN (Mnih et al. 2013). Defaults are the paper's
/// Section 5.2 setup scaled down ~20x so experiments finish on a laptop:
/// the paper uses a 1,000,000-step replay buffer, 20,000-step train start,
/// trains on 32 sampled steps per 4 inserted steps, and broadcasts weights
/// every few training sessions.
struct DqnConfig {
  std::vector<std::size_t> hidden = {64, 64};
  float lr = 1e-3f;
  float gamma = 0.99f;
  std::size_t replay_capacity = 50'000;
  std::size_t train_start = 1'000;
  std::size_t batch_size = 32;
  std::size_t train_interval_steps = 4;  ///< inserts gating one session
  int target_sync_interval = 100;        ///< sessions between target syncs
  int broadcast_every = 4;               ///< sessions between weight broadcasts
  float eps_start = 1.0f;
  float eps_end = 0.05f;
  std::size_t eps_decay_steps = 10'000;
  bool double_dqn = false;
  bool prioritized = false;
  std::size_t steps_per_message = 4;     ///< explorer ships every 4 steps (paper)
  /// Opaque per-step frame payload size (0 = none); see RolloutStep::frame.
  std::size_t frame_bytes_per_step = 0;
};

/// Explorer-side DQN: epsilon-greedy over the Q network.
class DqnAgent final : public Agent {
 public:
  DqnAgent(DqnConfig config, std::size_t obs_dim, std::int32_t n_actions,
           std::uint32_t explorer_index, std::uint64_t seed);

  std::int32_t infer_action(const std::vector<float>& observation) override;
  void handle_env_feedback(const std::vector<float>& observation,
                           std::int32_t action, float reward, bool done,
                           const std::vector<float>& next_observation) override;
  [[nodiscard]] bool batch_ready() const override;
  RolloutBatch take_batch() override;
  bool apply_weights(const Bytes& weights, std::uint32_t version) override;
  [[nodiscard]] std::uint32_t weights_version() const override { return version_; }

  [[nodiscard]] float epsilon() const;

 private:
  const DqnConfig config_;
  const std::uint32_t explorer_index_;
  nn::Mlp q_net_;
  Rng rng_;
  std::uint64_t total_steps_ = 0;
  std::uint32_t version_ = 0;
  RolloutBatch pending_;
};

/// Learner-side DQN: replay maintenance in prepare_data (kept *inside* the
/// trainer thread in XingTian — the Fig. 9 design point), TD training with
/// a target network in train().
///
/// The replay-access points are virtual so baseline frameworks can relocate
/// the buffer into a separate logical process behind RPC (RLLib's replay
/// actor) while reusing the identical training math — the comparison in
/// Fig. 9 then isolates exactly the communication placement.
class DqnAlgorithm : public Algorithm {
 public:
  DqnAlgorithm(DqnConfig config, std::size_t obs_dim, std::int32_t n_actions,
               std::uint64_t seed);

  void prepare_data(RolloutBatch batch) override;
  [[nodiscard]] bool ready_to_train() const override;
  TrainResult train() override;
  [[nodiscard]] Bytes weights() const override;
  [[nodiscard]] std::uint32_t weights_version() const override { return version_; }
  [[nodiscard]] int broadcast_interval() const override { return config_.broadcast_every; }
  bool load_policy_weights(const Bytes& snapshot) override;

  [[nodiscard]] virtual std::size_t replay_size() const;
  [[nodiscard]] int training_sessions() const { return sessions_; }
  [[nodiscard]] const Histogram* replay_sample_latency() const override {
    return &sample_latency_ms_;
  }

 protected:
  /// Insert one reconstructed transition into the replay store.
  virtual void store_transition(Transition transition);
  /// Sample a training batch from the replay store (uniform path only; the
  /// prioritized path stays learner-local).
  [[nodiscard]] virtual std::vector<Transition> fetch_batch(std::size_t n);

 private:
  TrainResult train_session();

  const DqnConfig config_;
  const std::int32_t n_actions_;
  nn::Mlp q_net_;
  nn::Mlp target_net_;
  nn::Adam optimizer_;
  UniformReplay replay_;
  std::unique_ptr<PrioritizedReplay> prioritized_;
  std::size_t pending_inserts_ = 0;  ///< inserts since last session
  int sessions_ = 0;
  std::uint32_t version_ = 1;
  Histogram sample_latency_ms_;
};

}  // namespace xt
