#include "algo/dqn.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/clock.h"

namespace xt {
namespace {

nn::Mlp build_q_net(const DqnConfig& config, std::size_t obs_dim,
                    std::int32_t n_actions, Rng& rng) {
  std::vector<nn::LayerSpec> specs;
  for (std::size_t width : config.hidden) {
    specs.push_back({width, nn::Activation::kRelu});
  }
  specs.push_back({static_cast<std::size_t>(n_actions), nn::Activation::kIdentity});
  return nn::Mlp(obs_dim, std::move(specs), rng);
}

}  // namespace

// ---------------------------------------------------------------------------
// DqnAgent
// ---------------------------------------------------------------------------

DqnAgent::DqnAgent(DqnConfig config, std::size_t obs_dim, std::int32_t n_actions,
                   std::uint32_t explorer_index, std::uint64_t seed)
    : config_(std::move(config)), explorer_index_(explorer_index), rng_(seed) {
  Rng init_rng(seed ^ 0xD1DABEEFULL);
  q_net_ = build_q_net(config_, obs_dim, n_actions, init_rng);
  pending_.explorer_index = explorer_index_;
}

float DqnAgent::epsilon() const {
  if (total_steps_ >= config_.eps_decay_steps) return config_.eps_end;
  const double frac =
      static_cast<double>(total_steps_) / static_cast<double>(config_.eps_decay_steps);
  return static_cast<float>(config_.eps_start +
                            (config_.eps_end - config_.eps_start) * frac);
}

std::int32_t DqnAgent::infer_action(const std::vector<float>& observation) {
  ++total_steps_;
  if (rng_.uniform() < epsilon()) {
    return static_cast<std::int32_t>(rng_.uniform_index(
        static_cast<std::uint64_t>(q_net_.output_dim())));
  }
  const nn::Matrix q = q_net_.forward(nn::Matrix::from_row(observation));
  return nn::argmax_row(q.row_ptr(0), q.cols());
}

void DqnAgent::handle_env_feedback(const std::vector<float>& observation,
                                   std::int32_t action, float reward, bool done,
                                   const std::vector<float>& next_observation) {
  RolloutStep step{observation, action, reward, done, 0.0f, {}};
  if (config_.frame_bytes_per_step > 0) {
    fill_frame(step.frame, config_.frame_bytes_per_step, total_steps_);
  }
  pending_.steps.push_back(std::move(step));
  pending_.final_observation = next_observation;
}

bool DqnAgent::batch_ready() const {
  return pending_.steps.size() >= config_.steps_per_message;
}

RolloutBatch DqnAgent::take_batch() {
  RolloutBatch out = std::move(pending_);
  out.weights_version = version_;
  pending_ = RolloutBatch{};
  pending_.explorer_index = explorer_index_;
  return out;
}

bool DqnAgent::apply_weights(const Bytes& weights, std::uint32_t version) {
  if (version <= version_) return false;  // stale broadcast
  if (!q_net_.load_weights(weights)) return false;
  version_ = version;
  return true;
}

// ---------------------------------------------------------------------------
// DqnAlgorithm
// ---------------------------------------------------------------------------

DqnAlgorithm::DqnAlgorithm(DqnConfig config, std::size_t obs_dim,
                           std::int32_t n_actions, std::uint64_t seed)
    : config_(std::move(config)),
      n_actions_(n_actions),
      optimizer_(config_.lr),
      replay_(config_.replay_capacity, seed ^ 0xEEFULL) {
  Rng init_rng(seed ^ 0xD1DABEEFULL);
  q_net_ = build_q_net(config_, obs_dim, n_actions, init_rng);
  target_net_ = q_net_;
  if (config_.prioritized) {
    prioritized_ = std::make_unique<PrioritizedReplay>(config_.replay_capacity,
                                                       seed ^ 0xABCULL);
  }
}

void DqnAlgorithm::prepare_data(RolloutBatch batch) {
  // Rebuild (s, a, r, s', done) transitions from the fragment; each step's
  // next observation is the following step's observation, with the shipped
  // final_observation closing the fragment. Steps flagged done never use
  // their next observation (the TD target masks the bootstrap).
  for (std::size_t i = 0; i < batch.steps.size(); ++i) {
    Transition t;
    t.observation = std::move(batch.steps[i].observation);
    t.action = batch.steps[i].action;
    t.reward = batch.steps[i].reward;
    t.done = batch.steps[i].done;
    t.next_observation = i + 1 < batch.steps.size()
                             ? batch.steps[i + 1].observation
                             : batch.final_observation;
    if (t.next_observation.empty()) t.next_observation = t.observation;
    t.frame = std::move(batch.steps[i].frame);
    store_transition(std::move(t));
    ++pending_inserts_;
  }
}

void DqnAlgorithm::store_transition(Transition transition) {
  if (prioritized_) {
    prioritized_->add(std::move(transition));
  } else {
    replay_.add(std::move(transition));
  }
}

std::vector<Transition> DqnAlgorithm::fetch_batch(std::size_t n) {
  return replay_.sample(n);
}

std::size_t DqnAlgorithm::replay_size() const {
  return prioritized_ ? prioritized_->size() : replay_.size();
}

bool DqnAlgorithm::ready_to_train() const {
  if (replay_size() < config_.train_start) {
    // Warm-up: nothing to train yet, but pending inserts still count as
    // consumed (the learner's job in this phase is filling the buffer).
    return pending_inserts_ > 0;
  }
  return pending_inserts_ >= config_.train_interval_steps;
}

Algorithm::TrainResult DqnAlgorithm::train() {
  if (replay_size() < config_.train_start) {
    TrainResult result;
    result.steps_consumed = pending_inserts_;
    pending_inserts_ = 0;
    result.stats["warmup"] = 1.0;
    result.stats["replay_size"] = static_cast<double>(replay_size());
    return result;
  }
  pending_inserts_ -= std::min(pending_inserts_, config_.train_interval_steps);
  return train_session();
}

Algorithm::TrainResult DqnAlgorithm::train_session() {
  TrainResult result;
  std::vector<Transition> batch;
  std::vector<std::size_t> pr_indices;
  std::vector<float> is_weights;
  {
    const Stopwatch sample_clock;
    if (prioritized_) {
      auto sample = prioritized_->sample(config_.batch_size);
      batch = std::move(sample.transitions);
      pr_indices = std::move(sample.indices);
      is_weights = std::move(sample.weights);
    } else {
      batch = fetch_batch(config_.batch_size);
    }
    sample_latency_ms_.observe(sample_clock.elapsed_ms());
  }
  if (batch.empty()) return result;

  std::vector<std::vector<float>> obs, next_obs;
  std::vector<std::int32_t> actions;
  obs.reserve(batch.size());
  next_obs.reserve(batch.size());
  actions.reserve(batch.size());
  for (const Transition& t : batch) {
    obs.push_back(t.observation);
    next_obs.push_back(t.next_observation);
    actions.push_back(t.action);
  }

  const nn::Matrix x = nn::Matrix::from_rows(obs);
  const nn::Matrix x_next = nn::Matrix::from_rows(next_obs);
  const nn::Matrix q_next_target = target_net_.forward(x_next);

  std::vector<float> targets(batch.size());
  if (config_.double_dqn) {
    // Double DQN: online net picks the argmax, target net evaluates it.
    const nn::Matrix q_next_online = q_net_.forward(x_next);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto best = static_cast<std::size_t>(
          nn::argmax_row(q_next_online.row_ptr(i), q_next_online.cols()));
      const float bootstrap = batch[i].done ? 0.0f : q_next_target.at(i, best);
      targets[i] = batch[i].reward + config_.gamma * bootstrap;
    }
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const float max_next =
          *std::max_element(q_next_target.row_ptr(i),
                            q_next_target.row_ptr(i) + q_next_target.cols());
      const float bootstrap = batch[i].done ? 0.0f : max_next;
      targets[i] = batch[i].reward + config_.gamma * bootstrap;
    }
  }

  q_net_.zero_grad();
  const nn::Matrix q = q_net_.forward_train(x);
  nn::Matrix grad;
  const float loss = nn::huber_loss_selected(q, targets, actions, grad);
  if (!is_weights.empty()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      for (std::size_t c = 0; c < grad.cols(); ++c) {
        grad.at(i, c) *= is_weights[i];
      }
    }
  }
  q_net_.backward(grad);
  optimizer_.step(q_net_.parameters(), q_net_.gradients());

  if (prioritized_) {
    std::vector<float> new_priorities(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto a = static_cast<std::size_t>(actions[i]);
      new_priorities[i] = std::abs(q.at(i, a) - targets[i]) + 1e-3f;
    }
    prioritized_->update_priorities(pr_indices, new_priorities);
  }

  ++sessions_;
  ++version_;
  if (sessions_ % config_.target_sync_interval == 0) {
    target_net_.copy_parameters_from(q_net_);
  }

  result.steps_consumed = config_.train_interval_steps;
  result.stats["loss"] = loss;
  result.stats["replay_size"] = static_cast<double>(replay_size());
  result.stats["sessions"] = sessions_;
  return result;
}

Bytes DqnAlgorithm::weights() const { return q_net_.serialize(); }

bool DqnAlgorithm::load_policy_weights(const Bytes& snapshot) {
  if (!q_net_.load_weights(snapshot)) return false;
  target_net_.copy_parameters_from(q_net_);
  ++version_;
  return true;
}

}  // namespace xt
