#pragma once

#include <deque>

#include "algo/interfaces.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace xt {

/// Hyperparameters for PPO (Schulman et al. 2017). The paper's Section 5.2
/// setup runs 10 explorers that each ship fragments of 200 (CartPole) or
/// 500 (Atari) rollout steps, with the learner consuming one fragment from
/// every explorer per iteration (batch 2,000 / 5,000).
struct PpoConfig {
  std::vector<std::size_t> hidden = {64, 64};
  float lr = 3e-4f;
  float gamma = 0.99f;
  float lambda = 0.95f;
  float clip = 0.2f;
  float entropy_coef = 0.01f;
  float value_coef = 0.5f;
  float max_grad_norm = 0.5f;
  int epochs = 4;
  std::size_t minibatch = 256;     ///< 0 = single full-batch update per epoch
  std::size_t fragment_len = 200;  ///< steps per explorer message
  std::size_t n_explorers = 10;
  bool normalize_advantages = true;
  /// Opaque per-step frame payload size (0 = none); see RolloutStep::frame.
  std::size_t frame_bytes_per_step = 0;
};

/// Explorer-side PPO: samples from the stochastic policy and records the
/// behavior log-prob each step. On-policy: after shipping a fragment the
/// agent must wait for the learner's next weights broadcast.
class PpoAgent final : public Agent {
 public:
  PpoAgent(PpoConfig config, std::size_t obs_dim, std::int32_t n_actions,
           std::uint32_t explorer_index, std::uint64_t seed);

  std::int32_t infer_action(const std::vector<float>& observation) override;
  void handle_env_feedback(const std::vector<float>& observation,
                           std::int32_t action, float reward, bool done,
                           const std::vector<float>& next_observation) override;
  [[nodiscard]] bool batch_ready() const override;
  RolloutBatch take_batch() override;
  bool apply_weights(const Bytes& weights, std::uint32_t version) override;
  [[nodiscard]] std::uint32_t weights_version() const override { return version_; }
  [[nodiscard]] bool requires_fresh_weights() const override { return true; }

 private:
  const PpoConfig config_;
  const std::uint32_t explorer_index_;
  nn::Mlp policy_net_;
  Rng rng_;
  std::uint32_t version_ = 0;
  RolloutBatch pending_;
  float last_logp_ = 0.0f;
};

/// Learner-side PPO: waits for one fragment from every explorer, computes
/// GAE with its local value network, then runs several epochs of clipped
/// surrogate updates. Each minibatch updates the policy and value nets in
/// three flat compute-pool phases (DESIGN.md §8), so a session's bits do
/// not depend on the thread count.
class PpoAlgorithm final : public Algorithm {
 public:
  PpoAlgorithm(PpoConfig config, std::size_t obs_dim, std::int32_t n_actions,
               std::uint64_t seed);

  void prepare_data(RolloutBatch batch) override;
  [[nodiscard]] bool ready_to_train() const override;
  TrainResult train() override;
  [[nodiscard]] Bytes weights() const override;
  [[nodiscard]] std::uint32_t weights_version() const override { return version_; }
  bool load_policy_weights(const Bytes& snapshot) override;
  /// PPO explorers block in ship_batch until the next version lands, so the
  /// learner must never lazily skip a broadcast (see Algorithm docs).
  [[nodiscard]] bool explorers_block_on_weights() const override { return true; }

  [[nodiscard]] std::size_t queued_fragments() const { return fragments_.size(); }
  [[nodiscard]] std::uint64_t stale_fragments_dropped() const { return stale_dropped_; }
  /// Fragments that train() consumed one version behind the weights it
  /// trained from (two or more behind are dropped above). Zero while the
  /// explorers stay in lockstep with the learner.
  [[nodiscard]] std::uint64_t fragments_consumed_behind() const {
    return consumed_behind_;
  }

 private:
  /// A queued fragment and, once prepared, its GAE advantages and returns.
  struct Fragment {
    RolloutBatch batch;
    std::vector<float> advantages;
    std::vector<float> returns;
    bool prepared = false;
  };
  /// Computes the fragment's values, bootstrap value and GAE with the
  /// current value net.
  void prepare(Fragment& fragment) const;

  const PpoConfig config_;
  nn::Mlp policy_net_;
  nn::Mlp value_net_;
  nn::Adam policy_opt_;
  nn::Adam value_opt_;
  Rng rng_;
  std::deque<Fragment> fragments_;
  std::uint32_t version_ = 1;
  std::uint64_t stale_dropped_ = 0;
  std::uint64_t consumed_behind_ = 0;
};

}  // namespace xt
