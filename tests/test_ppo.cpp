#include "algo/ppo.h"

#include <bit>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "algo/factory.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/matrix.h"
#include "obs/catalog.h"
#include "obs/metrics.h"

namespace xt {
namespace {

PpoConfig small_config() {
  PpoConfig config;
  config.hidden = {16};
  config.fragment_len = 32;
  config.n_explorers = 2;
  config.epochs = 2;
  config.minibatch = 0;
  return config;
}

RolloutBatch fragment_from_agent(PpoAgent& agent, std::size_t obs_dim,
                                 Rng& rng) {
  while (!agent.batch_ready()) {
    std::vector<float> obs(obs_dim);
    for (auto& v : obs) v = static_cast<float>(rng.normal());
    const auto action = agent.infer_action(obs);
    agent.handle_env_feedback(obs, action, static_cast<float>(rng.normal()),
                              rng.bernoulli(0.05), obs);
  }
  return agent.take_batch();
}

TEST(PpoAgent, RequiresFreshWeights) {
  PpoAgent agent(small_config(), 4, 2, 0, 1);
  EXPECT_TRUE(agent.requires_fresh_weights());
}

TEST(PpoAgent, RecordsBehaviorLogProbs) {
  PpoAgent agent(small_config(), 4, 2, 0, 1);
  Rng rng(2);
  const RolloutBatch batch = fragment_from_agent(agent, 4, rng);
  ASSERT_EQ(batch.steps.size(), 32u);
  for (const auto& step : batch.steps) {
    EXPECT_LT(step.behavior_logp, 0.0f);   // log of a probability < 1
    EXPECT_GT(step.behavior_logp, -10.0f);
  }
}

TEST(PpoAgent, BatchCarriesVersionAndIndex) {
  PpoConfig config = small_config();
  PpoAgent agent(config, 4, 2, 7, 1);
  PpoAlgorithm algorithm(config, 4, 2, 5);
  ASSERT_TRUE(agent.apply_weights(algorithm.weights(), 4));
  Rng rng(3);
  const RolloutBatch batch = fragment_from_agent(agent, 4, rng);
  EXPECT_EQ(batch.weights_version, 4u);
  EXPECT_EQ(batch.explorer_index, 7u);
}

TEST(PpoAlgorithm, ReadyOnlyWithFragmentFromEveryExplorer) {
  PpoConfig config = small_config();
  PpoAlgorithm algorithm(config, 4, 2, 1);
  PpoAgent agent0(config, 4, 2, 0, 2);
  PpoAgent agent1(config, 4, 2, 1, 3);
  ASSERT_TRUE(agent0.apply_weights(algorithm.weights(), 1));
  ASSERT_TRUE(agent1.apply_weights(algorithm.weights(), 1));
  Rng rng(4);
  algorithm.prepare_data(fragment_from_agent(agent0, 4, rng));
  EXPECT_FALSE(algorithm.ready_to_train());
  algorithm.prepare_data(fragment_from_agent(agent1, 4, rng));
  EXPECT_TRUE(algorithm.ready_to_train());
}

TEST(PpoAlgorithm, TrainConsumesAllFragmentsAndBumpsVersion) {
  PpoConfig config = small_config();
  PpoAlgorithm algorithm(config, 4, 2, 1);
  PpoAgent agent0(config, 4, 2, 0, 2);
  PpoAgent agent1(config, 4, 2, 1, 3);
  ASSERT_TRUE(agent0.apply_weights(algorithm.weights(), 1));
  ASSERT_TRUE(agent1.apply_weights(algorithm.weights(), 1));
  Rng rng(5);
  algorithm.prepare_data(fragment_from_agent(agent0, 4, rng));
  algorithm.prepare_data(fragment_from_agent(agent1, 4, rng));
  const auto v0 = algorithm.weights_version();
  const auto result = algorithm.train();
  EXPECT_EQ(result.steps_consumed, 64u);
  EXPECT_EQ(algorithm.weights_version(), v0 + 1);
  EXPECT_TRUE(result.respond_to.empty());  // broadcast to everyone
  EXPECT_EQ(algorithm.queued_fragments(), 0u);
  EXPECT_EQ(result.stats.count("policy_loss"), 1u);
  EXPECT_EQ(result.stats.count("entropy"), 1u);
}

TEST(PpoAlgorithm, DropsVeryStaleFragments) {
  PpoConfig config = small_config();
  config.n_explorers = 1;
  PpoAlgorithm algorithm(config, 4, 2, 1);
  PpoAgent agent(config, 4, 2, 0, 2);
  Rng rng(6);
  // Advance the learner a few versions.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(agent.apply_weights(algorithm.weights(),
                                    algorithm.weights_version()));
    algorithm.prepare_data(fragment_from_agent(agent, 4, rng));
    ASSERT_TRUE(algorithm.ready_to_train());
    (void)algorithm.train();
  }
  // A fragment from version 1 is now ancient and must be dropped.
  RolloutBatch stale;
  stale.weights_version = 1;
  stale.steps.push_back(RolloutStep{{0, 0, 0, 0}, 0, 0.0f, true, -0.5f, {}});
  algorithm.prepare_data(std::move(stale));
  EXPECT_EQ(algorithm.stale_fragments_dropped(), 1u);
  EXPECT_FALSE(algorithm.ready_to_train());
}

TEST(PpoAlgorithm, MinibatchModeTrains) {
  PpoConfig config = small_config();
  config.minibatch = 8;
  config.n_explorers = 1;
  PpoAlgorithm algorithm(config, 4, 2, 1);
  PpoAgent agent(config, 4, 2, 0, 2);
  ASSERT_TRUE(agent.apply_weights(algorithm.weights(), 1));
  Rng rng(7);
  algorithm.prepare_data(fragment_from_agent(agent, 4, rng));
  const auto result = algorithm.train();
  EXPECT_EQ(result.steps_consumed, 32u);
}

/// ppo_sync_2m's learner shape: hidden 128, 128; one 500-step fragment of
/// 128-float observations from each of 4 explorers; 4 epochs of 256-row
/// minibatches, clipped and stepped by Adam.
struct Sync2mSession {
  static constexpr std::size_t kObsDim = 128;
  static constexpr std::int32_t kActions = 3;
  PpoConfig config;
  std::vector<RolloutBatch> fragments;

  Sync2mSession() {
    config.hidden = {128, 128};
    config.fragment_len = 500;
    config.n_explorers = 4;
    config.epochs = 4;
    config.minibatch = 256;
    const PpoAlgorithm algorithm(config, kObsDim, kActions, 1);
    Rng rng(8);
    for (std::uint32_t e = 0; e < config.n_explorers; ++e) {
      PpoAgent agent(config, kObsDim, kActions, e, 20 + e);
      EXPECT_TRUE(agent.apply_weights(algorithm.weights(), algorithm.weights_version()));
      fragments.push_back(fragment_from_agent(agent, kObsDim, rng));
    }
  }

  /// Trains one session at `threads` on a fresh learner; returns its
  /// serialized policy weights and stats.
  std::pair<Bytes, std::map<std::string, double>> train(int threads) const {
    set_compute_threads(threads);
    PpoAlgorithm algorithm(config, kObsDim, kActions, 1);
    for (const RolloutBatch& fragment : fragments) algorithm.prepare_data(fragment);
    EXPECT_TRUE(algorithm.ready_to_train());
    Algorithm::TrainResult result = algorithm.train();
    EXPECT_EQ(result.steps_consumed, 2'000u);
    set_compute_threads(-1);
    return {algorithm.weights(), std::move(result.stats)};
  }
};

/// The stats with each value as its bit pattern, for exact comparison.
std::map<std::string, std::uint64_t> bits(const std::map<std::string, double>& stats) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [key, value] : stats) out[key] = std::bit_cast<std::uint64_t>(value);
  return out;
}

// Blocked kernels give the same bits at every thread count, and each
// minibatch's phases are row-local pieces or full-minibatch products, so a
// whole training session does too, whether the phases run inline (threads
// 1, and 0, which has no pool either), on fewer threads than tasks (2, 3),
// one task per thread (4) or with threads to spare (8).
TEST(PpoAlgorithm, TrainingSessionInvariantAcrossThreadCounts) {
  const Sync2mSession session;
  const auto [weights, stats] = session.train(1);
  EXPECT_EQ(stats.size(), 3u);
  for (int threads : {0, 2, 3, 4, 8}) {
    const auto [got_weights, got_stats] = session.train(threads);
    EXPECT_TRUE(got_weights == weights) << "threads=" << threads;
    EXPECT_EQ(bits(got_stats), bits(stats)) << "threads=" << threads;
  }
}

// The trainer thread's kernel metrics follow a phase's tasks onto the pool
// workers that run them, and the tasks do not depend on the thread count,
// so a session records the same matmuls at any thread count.
TEST(PpoAlgorithm, KernelMetricsFollowUpdatesOntoPoolWorkers) {
  const Sync2mSession session;
  const auto recorded = [&session](int threads) {
    MetricsRegistry registry;
    nn::bind_kernel_metrics(&registry, "learner");
    (void)session.train(threads);
    nn::bind_kernel_metrics(nullptr);
    return std::pair{
        registry.counter(metric::xt_gemm_flops_total, {"learner", 0}).value(),
        registry.histogram(metric::xt_gemm_ms, {"learner", 0}).count()};
  };
  const auto [flops, calls] = recorded(1);
  EXPECT_GT(flops, 0u);
  const auto [pooled_flops, pooled_calls] = recorded(4);
  EXPECT_EQ(pooled_flops, flops);
  EXPECT_EQ(pooled_calls, calls);
}

// A fragment that arrives while the next session's are still missing is
// prepared on arrival, with the value net that session trains with; one
// that arrives for a later session waits for that session's value net. So
// fragments queued two sessions deep train as those fed one session at a
// time.
TEST(PpoAlgorithm, FragmentsQueuedForLaterSessionsTrainAsFedOneByOne) {
  PpoConfig config = small_config();
  Rng rng(9);
  std::vector<RolloutBatch> fragments;
  {
    PpoAlgorithm algorithm(config, 4, 2, 1);
    for (std::uint32_t e = 0; e < 2 * config.n_explorers; ++e) {
      PpoAgent agent(config, 4, 2, e % config.n_explorers, 30 + e);
      EXPECT_TRUE(agent.apply_weights(algorithm.weights(), 1));
      fragments.push_back(fragment_from_agent(agent, 4, rng));
    }
  }
  const auto sessions = [&](bool queued) {
    PpoAlgorithm algorithm(config, 4, 2, 1);
    std::vector<Bytes> out;
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      algorithm.prepare_data(fragments[i]);
      const bool last_of_session = (i + 1) % config.n_explorers == 0;
      if ((queued && i + 1 == fragments.size()) || (!queued && last_of_session)) {
        while (algorithm.ready_to_train()) {
          (void)algorithm.train();
          out.push_back(algorithm.weights());
        }
      }
    }
    return out;
  };
  const std::vector<Bytes> one_by_one = sessions(false);
  ASSERT_EQ(one_by_one.size(), 2u);
  EXPECT_EQ(sessions(true), one_by_one);
}

// Learning smoke test on a contextual bandit: action 0 pays +1, action 1
// pays -1, episodes are one step. After several PPO iterations the policy
// should strongly prefer action 0.
TEST(PpoAlgorithm, LearnsBanditPreference) {
  PpoConfig config;
  config.hidden = {16};
  config.fragment_len = 64;
  config.n_explorers = 1;
  config.epochs = 4;
  config.minibatch = 0;
  config.lr = 0.01f;
  config.entropy_coef = 0.0f;
  PpoAlgorithm algorithm(config, 2, 2, 11);
  PpoAgent agent(config, 2, 2, 0, 12);

  for (int iteration = 0; iteration < 30; ++iteration) {
    ASSERT_TRUE(agent.apply_weights(algorithm.weights(),
                                    algorithm.weights_version()));
    while (!agent.batch_ready()) {
      const std::vector<float> obs = {1.0f, 0.0f};
      const auto action = agent.infer_action(obs);
      agent.handle_env_feedback(obs, action, action == 0 ? 1.0f : -1.0f, true,
                                obs);
    }
    algorithm.prepare_data(agent.take_batch());
    ASSERT_TRUE(algorithm.ready_to_train());
    (void)algorithm.train();
  }

  ASSERT_TRUE(agent.apply_weights(algorithm.weights(),
                                  algorithm.weights_version()));
  int zeros = 0;
  for (int i = 0; i < 200; ++i) {
    if (agent.infer_action({1.0f, 0.0f}) == 0) ++zeros;
  }
  EXPECT_GT(zeros, 160);  // stochastic policy heavily favors action 0
}

// A2C is the single-epoch, unclipped special case of the PPO machinery;
// verify the factory wiring produces a working learner that still solves
// the bandit.
TEST(A2c, FactoryVariantLearnsBandit) {
  AlgoSetup setup;
  setup.kind = AlgoKind::kA2c;
  setup.seed = 31;
  setup.ppo.hidden = {16};
  setup.ppo.fragment_len = 64;
  setup.ppo.n_explorers = 1;
  setup.ppo.lr = 0.02f;
  setup.ppo.entropy_coef = 0.0f;

  auto algorithm = make_algorithm(setup, 2, 2);
  auto agent = make_agent(setup, 2, 2, 0);
  EXPECT_TRUE(agent->requires_fresh_weights());  // still on-policy

  for (int iteration = 0; iteration < 40; ++iteration) {
    ASSERT_TRUE(agent->apply_weights(algorithm->weights(),
                                     algorithm->weights_version()));
    while (!agent->batch_ready()) {
      const std::vector<float> obs = {1.0f, 0.0f};
      const auto action = agent->infer_action(obs);
      agent->handle_env_feedback(obs, action, action == 0 ? 1.0f : -1.0f, true,
                                 obs);
    }
    algorithm->prepare_data(agent->take_batch());
    ASSERT_TRUE(algorithm->ready_to_train());
    (void)algorithm->train();
  }
  ASSERT_TRUE(agent->apply_weights(algorithm->weights(),
                                   algorithm->weights_version()));
  int zeros = 0;
  for (int i = 0; i < 200; ++i) {
    if (agent->infer_action({1.0f, 0.0f}) == 0) ++zeros;
  }
  EXPECT_GT(zeros, 150);
}

}  // namespace
}  // namespace xt
