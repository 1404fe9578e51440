#include "algo/ppo.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>

#include "algo/returns.h"
#include "common/thread_pool.h"
#include "obs/profiler.h"

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
  fragments_.push_back(std::move(batch));
}

bool PpoAlgorithm::ready_to_train() const {
  return fragments_.size() >= config_.n_explorers;
}

Algorithm::TrainResult PpoAlgorithm::train() {
  TrainResult result;

  // Gather per-fragment GAE, then concatenate into one flat batch.
  std::vector<std::vector<float>> all_obs;
  std::vector<std::int32_t> all_actions;
  std::vector<float> all_old_logp, all_advantages, all_returns;

  std::size_t n_fragments = 0;
  while (!fragments_.empty() && n_fragments < config_.n_explorers) {
    RolloutBatch fragment = std::move(fragments_.front());
    fragments_.pop_front();
    ++n_fragments;

    std::vector<std::vector<float>> obs;
    std::vector<float> rewards;
    std::vector<std::uint8_t> dones;
    obs.reserve(fragment.steps.size());
    for (RolloutStep& step : fragment.steps) {
      obs.push_back(std::move(step.observation));
      rewards.push_back(step.reward);
      dones.push_back(step.done ? 1 : 0);
    }

    const nn::Matrix values_m = value_net_.forward(nn::Matrix::from_rows(obs));
    std::vector<float> values(values_m.rows());
    for (std::size_t i = 0; i < values.size(); ++i) values[i] = values_m.at(i, 0);

    float bootstrap = 0.0f;
    if (!fragment.final_observation.empty() && !fragment.steps.back().done) {
      const nn::Matrix v = value_net_.forward(
          nn::Matrix::from_row(fragment.final_observation));
      bootstrap = v.at(0, 0);
    }

    std::vector<float> returns;
    std::vector<float> advantages =
        gae_advantages(rewards, dones, values, bootstrap, config_.gamma,
                       config_.lambda, &returns);

    for (std::size_t i = 0; i < obs.size(); ++i) {
      all_obs.push_back(std::move(obs[i]));
      all_actions.push_back(fragment.steps[i].action);
      all_old_logp.push_back(fragment.steps[i].behavior_logp);
      all_advantages.push_back(advantages[i]);
      all_returns.push_back(returns[i]);
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
  // Minibatch rows are copied straight from the session's observation
  // matrix into one reused matrix. The per-step vectors are freed once
  // copied into it.
  const nn::Matrix session_obs = nn::Matrix::from_rows(std::exchange(all_obs, {}));
  const std::size_t obs_dim = session_obs.cols();
  nn::Matrix x;
  const nn::KernelMetrics trainer_metrics = nn::kernel_metrics();

  double last_policy_loss = 0.0, last_value_loss = 0.0, last_entropy = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Fisher-Yates shuffle with our deterministic RNG.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng_.uniform_index(i)]);
    }
    for (std::size_t start = 0; start < n; start += minibatch) {
      const std::size_t end = std::min(n, start + minibatch);
      const std::size_t m = end - start;

      if (x.rows() != m) x = nn::Matrix(m, obs_dim);
      std::vector<std::int32_t> mb_actions(m);
      std::vector<float> mb_old_logp(m), mb_adv(m), mb_ret(m);
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t src = order[start + i];
        std::copy_n(session_obs.row_ptr(src), obs_dim, x.row_ptr(i));
        mb_actions[i] = all_actions[src];
        mb_old_logp[i] = all_old_logp[src];
        mb_adv[i] = all_advantages[src];
        mb_ret[i] = all_returns[src];
      }

      // The last minibatch of the last epoch reports its entropy.
      const bool reported = epoch + 1 == config_.epochs && end == n;
      // Policy update: clipped surrogate.
      const auto update_policy = [&] {
        policy_net_.zero_grad();
        const nn::Matrix logits = policy_net_.forward_train(x);
        const std::vector<float> logp = nn::action_log_probs(logits, mb_actions);
        std::vector<float> coefs(m);
        double policy_loss = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const float ratio = std::exp(logp[i] - mb_old_logp[i]);
          const float clipped =
              std::clamp(ratio, 1.0f - config_.clip, 1.0f + config_.clip);
          const float unclipped_obj = ratio * mb_adv[i];
          const float clipped_obj = clipped * mb_adv[i];
          policy_loss -= std::min(unclipped_obj, clipped_obj);
          // d surrogate / d logp is ratio * A when the unclipped branch is
          // active; zero once the clip binds.
          coefs[i] = unclipped_obj <= clipped_obj ? ratio * mb_adv[i] : 0.0f;
        }
        last_policy_loss = policy_loss / static_cast<double>(m);
        const nn::Matrix pg =
            nn::policy_gradient(logits, mb_actions, coefs, config_.entropy_coef);
        policy_net_.backward(pg);
        policy_opt_.step(policy_net_.parameters(), policy_net_.gradients(),
                         config_.max_grad_norm);
        if (reported) {
          const auto ent = nn::entropy(logits);
          last_entropy =
              std::accumulate(ent.begin(), ent.end(), 0.0) / static_cast<double>(m);
        }
      };
      // Value update: MSE to the GAE returns.
      const auto update_value = [&] {
        value_net_.zero_grad();
        const nn::Matrix v = value_net_.forward_train(x);
        nn::Matrix target(m, 1);
        for (std::size_t i = 0; i < m; ++i) target.at(i, 0) = mb_ret[i];
        nn::Matrix vgrad;
        last_value_loss = nn::mse_loss(v, target, vgrad);
        vgrad.scale_inplace(config_.value_coef);
        value_net_.backward(vgrad);
        value_opt_.step(value_net_.parameters(), value_net_.gradients(),
                        config_.max_grad_norm);
      };
      // The two nets, optimizers and caches are disjoint and the minibatch
      // is read-only, so the updates run as the two tasks of one pool job
      // (inline, policy first, without a pool), and every bit of the
      // session stays the same. A task that lands on a pool worker takes
      // this thread's kernel metrics and profiler label with it.
      compute_parallel_for(2, 1, [&](std::size_t first, std::size_t last) {
        const nn::KernelMetricsScope metrics(trainer_metrics);
        ProfScope prof("train");
        for (std::size_t task = first; task < last; ++task) {
          if (task == 0) {
            update_policy();
          } else {
            update_value();
          }
        }
      });
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
