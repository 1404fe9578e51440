#include "algo/impala.h"

#include <cassert>
#include <cmath>
#include <numeric>

#include "algo/returns.h"

namespace xt {
namespace {

nn::Mlp build_net(const std::vector<std::size_t>& hidden, std::size_t obs_dim,
                  std::size_t out_dim, Rng& rng) {
  std::vector<nn::LayerSpec> specs;
  for (std::size_t width : hidden) specs.push_back({width, nn::Activation::kRelu});
  specs.push_back({out_dim, nn::Activation::kIdentity});
  return nn::Mlp(obs_dim, std::move(specs), rng);
}

}  // namespace

// ---------------------------------------------------------------------------
// ImpalaAgent
// ---------------------------------------------------------------------------

ImpalaAgent::ImpalaAgent(ImpalaConfig config, std::size_t obs_dim,
                         std::int32_t n_actions, std::uint32_t explorer_index,
                         std::uint64_t seed)
    : config_(std::move(config)), explorer_index_(explorer_index), rng_(seed) {
  Rng init_rng(seed ^ 0xD1DABEEFULL);
  policy_net_ = build_net(config_.hidden, obs_dim,
                          static_cast<std::size_t>(n_actions), init_rng);
  pending_.explorer_index = explorer_index_;
}

std::int32_t ImpalaAgent::infer_action(const std::vector<float>& observation) {
  const nn::Matrix logits = policy_net_.forward(nn::Matrix::from_row(observation));
  const std::int32_t action =
      nn::sample_from_logits(logits.row_ptr(0), logits.cols(), rng_);
  last_logp_ = nn::action_log_probs(logits, {action})[0];
  return action;
}

void ImpalaAgent::handle_env_feedback(const std::vector<float>& observation,
                                      std::int32_t action, float reward,
                                      bool done,
                                      const std::vector<float>& next_observation) {
  RolloutStep step{observation, action, reward, done, last_logp_, {}};
  if (config_.frame_bytes_per_step > 0) {
    fill_frame(step.frame, config_.frame_bytes_per_step, pending_.steps.size());
  }
  pending_.steps.push_back(std::move(step));
  pending_.final_observation = next_observation;
}

bool ImpalaAgent::batch_ready() const {
  return pending_.steps.size() >= config_.fragment_len;
}

RolloutBatch ImpalaAgent::take_batch() {
  RolloutBatch out = std::move(pending_);
  out.weights_version = version_;
  pending_ = RolloutBatch{};
  pending_.explorer_index = explorer_index_;
  return out;
}

bool ImpalaAgent::apply_weights(const Bytes& weights, std::uint32_t version) {
  if (version <= version_) return false;
  if (!policy_net_.load_weights(weights)) return false;
  version_ = version;
  return true;
}

// ---------------------------------------------------------------------------
// ImpalaAlgorithm
// ---------------------------------------------------------------------------

ImpalaAlgorithm::ImpalaAlgorithm(ImpalaConfig config, std::size_t obs_dim,
                                 std::int32_t n_actions, std::uint64_t seed)
    : config_(std::move(config)),
      policy_opt_(config_.lr),
      value_opt_(config_.lr) {
  Rng init_rng(seed ^ 0xD1DABEEFULL);
  policy_net_ = build_net(config_.hidden, obs_dim,
                          static_cast<std::size_t>(n_actions), init_rng);
  value_net_ = build_net(config_.hidden, obs_dim, 1, init_rng);
}

void ImpalaAlgorithm::prepare_data(RolloutBatch batch) {
  // Off-policy: fragments generated under older weights are still usable —
  // V-trace corrects the policy lag (Section 2.1). Nothing is dropped.
  fragments_.push_back(std::move(batch));
}

bool ImpalaAlgorithm::ready_to_train() const { return !fragments_.empty(); }

Algorithm::TrainResult ImpalaAlgorithm::train() {
  TrainResult result;
  if (fragments_.empty()) return result;
  RolloutBatch fragment = std::move(fragments_.front());
  fragments_.pop_front();

  const std::size_t n = fragment.steps.size();
  if (n == 0) return result;

  std::vector<std::vector<float>> obs;
  std::vector<std::int32_t> actions;
  std::vector<float> rewards, behavior_logp;
  std::vector<std::uint8_t> dones;
  obs.reserve(n);
  for (RolloutStep& step : fragment.steps) {
    obs.push_back(std::move(step.observation));
    actions.push_back(step.action);
    rewards.push_back(step.reward);
    dones.push_back(step.done ? 1 : 0);
    behavior_logp.push_back(step.behavior_logp);
  }
  const nn::Matrix x = nn::Matrix::from_rows(obs);

  // Current values and bootstrap under the *learner's* value net.
  const nn::Matrix values_m = value_net_.forward(x);
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = values_m.at(i, 0);
  float bootstrap = 0.0f;
  if (!fragment.final_observation.empty() && !dones.back()) {
    bootstrap =
        value_net_.forward(nn::Matrix::from_row(fragment.final_observation)).at(0, 0);
  }

  // V-trace corrections using the current policy's log-probs.
  policy_net_.zero_grad();
  const nn::Matrix logits = policy_net_.forward_train(x);
  const std::vector<float> current_logp = nn::action_log_probs(logits, actions);
  std::vector<float> log_rhos(n);
  for (std::size_t i = 0; i < n; ++i) {
    log_rhos[i] = current_logp[i] - behavior_logp[i];
  }
  const VtraceResult vt = vtrace(log_rhos, rewards, dones, values, bootstrap,
                                 config_.gamma, config_.rho_clip, config_.c_clip);

  // Policy gradient with the V-trace advantages as coefficients.
  const nn::Matrix pg = nn::policy_gradient(logits, actions, vt.pg_advantages,
                                            config_.entropy_coef);
  policy_net_.backward(pg);
  policy_opt_.step(policy_net_.parameters(), policy_net_.gradients(),
                   config_.max_grad_norm);

  // Value regression toward the V-trace targets vs_t.
  value_net_.zero_grad();
  const nn::Matrix v = value_net_.forward_train(x);
  nn::Matrix target(n, 1);
  for (std::size_t i = 0; i < n; ++i) target.at(i, 0) = vt.vs[i];
  nn::Matrix vgrad;
  const float value_loss = nn::mse_loss(v, target, vgrad);
  vgrad.scale_inplace(config_.value_coef);
  value_net_.backward(vgrad);
  value_opt_.step(value_net_.parameters(), value_net_.gradients(),
                  config_.max_grad_norm);

  ++version_;
  result.steps_consumed = n;
  result.respond_to = {fragment.explorer_index};
  result.stats["value_loss"] = value_loss;
  const auto ent = nn::entropy(logits);
  result.stats["entropy"] =
      std::accumulate(ent.begin(), ent.end(), 0.0) / static_cast<double>(n);
  result.stats["policy_lag"] =
      static_cast<double>(version_) - fragment.weights_version;
  return result;
}

Bytes ImpalaAlgorithm::weights() const { return policy_net_.serialize(); }

bool ImpalaAlgorithm::load_policy_weights(const Bytes& snapshot) {
  if (!policy_net_.load_weights(snapshot)) return false;
  ++version_;
  return true;
}

}  // namespace xt
