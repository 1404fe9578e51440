#include "algo/ppo.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

#include "algo/returns.h"

namespace xt {
namespace {

nn::Mlp build_policy(const std::vector<std::size_t>& hidden, std::size_t obs_dim,
                     std::int32_t n_actions, Rng& rng) {
  std::vector<nn::LayerSpec> specs;
  for (std::size_t width : hidden) specs.push_back({width, nn::Activation::kTanh});
  specs.push_back({static_cast<std::size_t>(n_actions), nn::Activation::kIdentity});
  return nn::Mlp(obs_dim, std::move(specs), rng);
}

nn::Mlp build_value(const std::vector<std::size_t>& hidden, std::size_t obs_dim,
                    Rng& rng) {
  std::vector<nn::LayerSpec> specs;
  for (std::size_t width : hidden) specs.push_back({width, nn::Activation::kTanh});
  specs.push_back({1, nn::Activation::kIdentity});
  return nn::Mlp(obs_dim, std::move(specs), rng);
}

}  // namespace

// ---------------------------------------------------------------------------
// PpoAgent
// ---------------------------------------------------------------------------

PpoAgent::PpoAgent(PpoConfig config, std::size_t obs_dim, std::int32_t n_actions,
                   std::uint32_t explorer_index, std::uint64_t seed)
    : config_(std::move(config)), explorer_index_(explorer_index), rng_(seed) {
  Rng init_rng(seed ^ 0xD1DABEEFULL);
  policy_net_ = build_policy(config_.hidden, obs_dim, n_actions, init_rng);
  pending_.explorer_index = explorer_index_;
}

std::int32_t PpoAgent::infer_action(const std::vector<float>& observation) {
  const nn::Matrix logits = policy_net_.forward(nn::Matrix::from_row(observation));
  const std::int32_t action =
      nn::sample_from_logits(logits.row_ptr(0), logits.cols(), rng_);
  last_logp_ = nn::action_log_probs(logits, {action})[0];
  return action;
}

void PpoAgent::handle_env_feedback(const std::vector<float>& observation,
                                   std::int32_t action, float reward, bool done,
                                   const std::vector<float>& next_observation) {
  RolloutStep step{observation, action, reward, done, last_logp_, {}};
  if (config_.frame_bytes_per_step > 0) {
    fill_frame(step.frame, config_.frame_bytes_per_step, pending_.steps.size());
  }
  pending_.steps.push_back(std::move(step));
  pending_.final_observation = next_observation;
}

bool PpoAgent::batch_ready() const {
  return pending_.steps.size() >= config_.fragment_len;
}

RolloutBatch PpoAgent::take_batch() {
  RolloutBatch out = std::move(pending_);
  out.weights_version = version_;
  pending_ = RolloutBatch{};
  pending_.explorer_index = explorer_index_;
  return out;
}

bool PpoAgent::apply_weights(const Bytes& weights, std::uint32_t version) {
  if (version <= version_) return false;
  if (!policy_net_.load_weights(weights)) return false;
  version_ = version;
  return true;
}

// ---------------------------------------------------------------------------
// PpoAlgorithm
// ---------------------------------------------------------------------------

PpoAlgorithm::PpoAlgorithm(PpoConfig config, std::size_t obs_dim,
                           std::int32_t n_actions, std::uint64_t seed)
    : config_(std::move(config)),
      policy_opt_(config_.lr),
      value_opt_(config_.lr),
      rng_(seed ^ 0x99ULL) {
  Rng init_rng(seed ^ 0xD1DABEEFULL);
  policy_net_ = build_policy(config_.hidden, obs_dim, n_actions, init_rng);
  value_net_ = build_value(config_.hidden, obs_dim, init_rng);
}

void PpoAlgorithm::prepare_data(RolloutBatch batch) {
  // On-policy: a fragment generated under older weights cannot be used to
  // optimize the current policy (Section 2.1); with XingTian's synchronous
  // PPO orchestration stale fragments should not occur, but pull-based
  // baselines can race a broadcast, so drop defensively.
  if (batch.weights_version + 1 < version_) {
    ++stale_dropped_;
    return;
  }
  Fragment fragment;
  fragment.batch = std::move(batch);
  // A fragment the next train() consumes is prepared now, while the learner
  // waits for the rest: no training runs before that train(), so its values
  // are the ones train() would compute. A later session's fragment waits
  // for the value net of its own session.
  if (fragments_.size() < config_.n_explorers) prepare(fragment);
  fragments_.push_back(std::move(fragment));
}

void PpoAlgorithm::prepare(Fragment& fragment) const {
  const std::vector<RolloutStep>& steps = fragment.batch.steps;
  nn::Matrix obs(steps.size(), value_net_.input_dim());
  std::vector<float> rewards;
  std::vector<std::uint8_t> dones;
  rewards.reserve(steps.size());
  dones.reserve(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    // The copy is bounded by the row even for a malformed observation.
    const std::vector<float>& o = steps[i].observation;
    assert(o.size() == obs.cols());
    std::copy_n(o.begin(), std::min(o.size(), obs.cols()), obs.row_ptr(i));
    rewards.push_back(steps[i].reward);
    dones.push_back(steps[i].done ? 1 : 0);
  }

  const nn::Matrix values_m = value_net_.forward(obs);
  std::vector<float> values(values_m.rows());
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = values_m.at(i, 0);

  float bootstrap = 0.0f;
  const std::vector<float>& final_obs = fragment.batch.final_observation;
  if (!final_obs.empty() && !steps.back().done) {
    bootstrap = value_net_.forward(nn::Matrix::from_row(final_obs)).at(0, 0);
  }
  fragment.advantages = gae_advantages(rewards, dones, values, bootstrap, config_.gamma,
                                       config_.lambda, &fragment.returns);
  fragment.prepared = true;
}

bool PpoAlgorithm::ready_to_train() const {
  return fragments_.size() >= config_.n_explorers;
}

namespace {

// Rows per phase (a) task: a 256-row minibatch gives each net two shards,
// four tasks in all. Phase (b) cuts the weight gradients into about four
// parts' worth of tasks: each of ppo_sync_2m's four 128 x 256 x 128
// products is one. Neither depends on the thread count, so a session runs
// the same kernel calls at any thread count.
constexpr std::size_t kShardRows = 128;
constexpr std::size_t kWeightGradParts = 4;

}  // namespace

Algorithm::TrainResult PpoAlgorithm::train() {
  TrainResult result;

  // Concatenate the prepared fragments into one flat batch.
  std::vector<std::vector<float>> all_obs;
  std::vector<std::int32_t> all_actions;
  std::vector<float> all_old_logp, all_advantages, all_returns;

  std::size_t n_fragments = 0;
  while (!fragments_.empty() && n_fragments < config_.n_explorers) {
    Fragment fragment = std::move(fragments_.front());
    fragments_.pop_front();
    ++n_fragments;
    if (fragment.batch.weights_version < version_) ++consumed_behind_;
    if (!fragment.prepared) prepare(fragment);
    for (std::size_t i = 0; i < fragment.batch.steps.size(); ++i) {
      RolloutStep& step = fragment.batch.steps[i];
      all_obs.push_back(std::move(step.observation));
      all_actions.push_back(step.action);
      all_old_logp.push_back(step.behavior_logp);
      all_advantages.push_back(fragment.advantages[i]);
      all_returns.push_back(fragment.returns[i]);
    }
  }
  if (all_obs.empty()) return result;

  if (config_.normalize_advantages && all_advantages.size() > 1) {
    double mean = 0.0;
    for (float a : all_advantages) mean += a;
    mean /= static_cast<double>(all_advantages.size());
    double var = 0.0;
    for (float a : all_advantages) var += (a - mean) * (a - mean);
    var /= static_cast<double>(all_advantages.size());
    const double stddev = std::sqrt(var) + 1e-8;
    for (float& a : all_advantages) {
      a = static_cast<float>((a - mean) / stddev);
    }
  }

  const std::size_t n = all_obs.size();
  const std::size_t minibatch = config_.minibatch == 0 ? n : config_.minibatch;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Each net's phase (a) tasks copy their minibatch rows straight from the
  // session's observation matrix into the net's input. The per-step vectors
  // are freed once copied into it.
  const nn::Matrix session_obs = nn::Matrix::from_rows(std::exchange(all_obs, {}));
  const std::size_t obs_dim = session_obs.cols();
  std::size_t start = 0, m = 0;
  std::vector<std::int32_t> mb_actions;
  std::vector<float> mb_old_logp, mb_adv, mb_ret, objective;
  const auto gather = [&](nn::Mlp& net, std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      const float* src = session_obs.row_ptr(order[start + i]);
      std::copy_n(src, obs_dim, net.input().row_ptr(i));
    }
  };

  // The policy update: the clipped surrogate's gradient for rows [r0, r1) of
  // the minibatch, and each row's objective for the reported loss.
  const auto policy_shard = [&](std::size_t r0, std::size_t r1) {
    gather(policy_net_, r0, r1);
    const nn::Matrix logits = policy_net_.forward_rows(r0, r1);
    const auto first = mb_actions.begin();
    const std::vector<std::int32_t> actions(first + r0, first + r1);
    const std::vector<float> logp = nn::action_log_probs(logits, actions);
    std::vector<float> coefs(r1 - r0);
    for (std::size_t i = 0; i < coefs.size(); ++i) {
      const std::size_t row = r0 + i;
      const float ratio = std::exp(logp[i] - mb_old_logp[row]);
      const float clipped = std::clamp(ratio, 1.0f - config_.clip, 1.0f + config_.clip);
      const float unclipped_obj = ratio * mb_adv[row];
      const float clipped_obj = clipped * mb_adv[row];
      objective[row] = std::min(unclipped_obj, clipped_obj);
      // d surrogate / d logp is ratio * A when the unclipped branch is
      // active; zero once the clip binds.
      coefs[i] = unclipped_obj <= clipped_obj ? ratio * mb_adv[row] : 0.0f;
    }
    policy_net_.backward_rows(
        nn::policy_gradient(logits, actions, coefs, config_.entropy_coef, m), r0);
  };
  // The value update: MSE to the GAE returns, for rows [r0, r1).
  const auto value_shard = [&](std::size_t r0, std::size_t r1) {
    gather(value_net_, r0, r1);
    const nn::Matrix v = value_net_.forward_rows(r0, r1);
    nn::Matrix target(r1 - r0, 1);
    for (std::size_t i = 0; i < target.rows(); ++i) target.at(i, 0) = mb_ret[r0 + i];
    nn::Matrix vgrad;
    (void)nn::mse_loss(v, target, vgrad, m);
    vgrad.scale_inplace(config_.value_coef);
    value_net_.backward_rows(vgrad, r0);
  };

  double last_policy_loss = 0.0, last_value_loss = 0.0, last_entropy = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng_.uniform_index(i)]);
    }
    for (start = 0; start < n; start += minibatch) {
      const std::size_t end = std::min(n, start + minibatch);
      m = end - start;

      mb_actions.resize(m);
      mb_old_logp.resize(m);
      mb_adv.resize(m);
      mb_ret.resize(m);
      objective.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t src = order[start + i];
        mb_actions[i] = all_actions[src];
        mb_old_logp[i] = all_old_logp[src];
        mb_adv[i] = all_advantages[src];
        mb_ret[i] = all_returns[src];
      }
      policy_net_.begin_train(m);
      value_net_.begin_train(m);

      // The two nets share only read-only inputs, and every piece below is
      // row-local or a full-minibatch product, so the session's bits do not
      // depend on the thread count. Threads 0 and 1 run the same phases
      // inline. (a) Per net and row shard: forward, loss gradient and
      // backward to each layer's dY. Phase (b) adds into the gradients, so
      // each net's first shard clears them meanwhile.
      const std::size_t shards = (m + kShardRows - 1) / kShardRows;
      nn::train_tasks(2 * shards, [&](std::size_t task) {
        const bool policy = task < shards;
        const std::size_t r0 = task % shards * kShardRows;
        const std::size_t r1 = std::min(m, r0 + kShardRows);
        if (r0 == 0) (policy ? policy_net_ : value_net_).zero_grad();
        if (policy) {
          policy_shard(r0, r1);
        } else {
          value_shard(r0, r1);
        }
      });
      // (b) Every layer's dW = X^T dY and db over the whole minibatch.
      nn::Mlp::accumulate_weight_grads({&policy_net_, &value_net_}, kWeightGradParts);
      // (c) Clip and Adam, one task per net.
      nn::train_tasks(2, [&](std::size_t task) {
        if (task == 0) {
          policy_opt_.step(policy_net_.parameters(), policy_net_.gradients(),
                           config_.max_grad_norm);
        } else {
          value_opt_.step(value_net_.parameters(), value_net_.gradients(),
                          config_.max_grad_norm);
        }
      });

      // The last minibatch of the last epoch reports its losses and
      // entropy, each summed over the minibatch in row order.
      if (epoch + 1 == config_.epochs && end == n) {
        double policy_loss = 0.0;
        for (float o : objective) policy_loss -= o;
        last_policy_loss = policy_loss / static_cast<double>(m);
        nn::Matrix target(m, 1);
        for (std::size_t i = 0; i < m; ++i) target.at(i, 0) = mb_ret[i];
        nn::Matrix unused;
        last_value_loss = nn::mse_loss(value_net_.output(), target, unused);
        const auto ent = nn::entropy(policy_net_.output());
        last_entropy =
            std::accumulate(ent.begin(), ent.end(), 0.0) / static_cast<double>(m);
      }
    }
  }

  ++version_;
  result.steps_consumed = n;
  result.stats["policy_loss"] = last_policy_loss;
  result.stats["value_loss"] = last_value_loss;
  result.stats["entropy"] = last_entropy;
  return result;
}

Bytes PpoAlgorithm::weights() const { return policy_net_.serialize(); }

bool PpoAlgorithm::load_policy_weights(const Bytes& snapshot) {
  if (!policy_net_.load_weights(snapshot)) return false;
  ++version_;
  return true;
}

}  // namespace xt
