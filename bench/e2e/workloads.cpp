#include "workloads.h"

#include <memory>

#include "bench_util.h"
#include "envs/registry.h"
#include "envs/timed_env.h"

namespace xt::e2e {
namespace {

using bench::kAtariFrameBytes;
using bench::kIpcBandwidth;
using bench::kNicBandwidth;

/// SynthBreakout paced at 0.5 ms per step: DQN's explorers become env-bound
/// as on the paper's testbed, so the env pace sets steps/s and per-message
/// overhead in the comm layer shows only in latency.
constexpr const char* kTimedBreakout = "TimedBreakout";
constexpr std::int64_t kTimedStepNs = 500'000;

/// Shared by every workload: the paper's modeled IPC and NIC rates.
void paper_rates(DeploymentConfig& deploy) {
  deploy.broker.ipc_bandwidth_bytes_per_sec = kIpcBandwidth;
  deploy.link.bandwidth_bytes_per_sec = kNicBandwidth;
}

/// The paper's regime: rollouts of Table 1's size cross the paced links, and
/// the sender thread bounds steps/s while the learner idles.
void impala_bulk_3m(AlgoSetup& algo, DeploymentConfig& deploy) {
  algo.kind = AlgoKind::kImpala;
  algo.env_name = "SynthBreakout";
  algo.impala.hidden = {64, 64};
  algo.impala.fragment_len = 500;
  algo.impala.frame_bytes_per_step = kAtariFrameBytes;
  // One explorer per machine: two explorers sharing one link phase-lock into
  // colliding or interleaving for a whole run, so a run's latency lands near
  // one of two values about 12% apart, and its spread across runs with it.
  deploy.explorers_per_machine = {0, 1, 1};
  deploy.learner_machine = 0;
  // Plasma-style bound: at most two 14 MB rollouts wait per explorer.
  deploy.explorer_send_capacity = 2;
  paper_rates(deploy);
}

/// Synchronous: explorers block on every weights version, so training and the
/// broadcast sit on the critical path. Its frames compress under LZ4.
void ppo_sync_2m(AlgoSetup& algo, DeploymentConfig& deploy) {
  algo.kind = AlgoKind::kPpo;
  algo.env_name = "SynthBreakout";
  algo.ppo.hidden = {128, 128};
  algo.ppo.fragment_len = 500;
  algo.ppo.frame_bytes_per_step = 2'000;
  algo.ppo.n_explorers = 4;
  algo.ppo.epochs = 4;
  algo.ppo.minibatch = 256;
  deploy.explorers_per_machine = {2, 2};
  deploy.learner_machine = 0;
  paper_rates(deploy);
}

/// A fixed-rate stream of small messages without frames.
void dqn_stream(AlgoSetup& algo) {
  algo.kind = AlgoKind::kDqn;
  algo.env_name = kTimedBreakout;
  algo.dqn.replay_capacity = 20'000;
  algo.dqn.train_start = 500;
  algo.dqn.steps_per_message = 4;
  algo.dqn.frame_bytes_per_step = 0;
}

/// The stream on one machine: it bypasses netsim and LZ4.
void dqn_stream_1m(AlgoSetup& algo, DeploymentConfig& deploy) {
  dqn_stream(algo);
  deploy.explorers_per_machine = {2};
  deploy.learner_machine = 0;
  paper_rates(deploy);
}

/// The stream across a link: small experience frames one way, and the weight
/// broadcasts that outweigh them the other.
void dqn_stream_2m(AlgoSetup& algo, DeploymentConfig& deploy) {
  dqn_stream(algo);
  deploy.explorers_per_machine = {0, 2};
  deploy.learner_machine = 0;
  paper_rates(deploy);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"impala_bulk_3m", 0.8, 2'750.0, 5, impala_bulk_3m},
      {"ppo_sync_2m", 0.9, 7'600.0, 5, ppo_sync_2m},
      {"dqn_stream_1m", 0.8, 3'470.0, 9, dqn_stream_1m},
      {"dqn_stream_2m", 0.8, 3'470.0, 9, dqn_stream_2m},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

AlgoSetup make_algo_setup(const Workload& workload, std::uint64_t seed) {
  AlgoSetup algo;
  DeploymentConfig unused;
  workload.configure(algo, unused);
  algo.seed = seed;
  return algo;
}

DeploymentConfig make_deployment(const Workload& workload, double seconds) {
  AlgoSetup unused;
  DeploymentConfig deploy;
  workload.configure(unused, deploy);
  deploy.max_steps_consumed = 0;
  deploy.max_seconds = seconds;
  return deploy;
}

void register_benchmark_envs() {
  register_environment(kTimedBreakout, [] {
    return std::make_unique<TimedEnv>(make_environment("SynthBreakout"),
                                      kTimedStepNs);
  });
}

std::size_t expected_rollout_bytes(const Workload& workload) {
  const AlgoSetup algo = make_algo_setup(workload, 1);
  const auto env = make_environment(algo.env_name);
  std::size_t frame_bytes = 0;
  switch (algo.kind) {
    case AlgoKind::kDqn: frame_bytes = algo.dqn.frame_bytes_per_step; break;
    case AlgoKind::kPpo:
    case AlgoKind::kA2c: frame_bytes = algo.ppo.frame_bytes_per_step; break;
    case AlgoKind::kImpala: frame_bytes = algo.impala.frame_bytes_per_step; break;
  }
  RolloutBatch batch;
  batch.steps.resize(steps_per_message(algo));
  for (RolloutStep& step : batch.steps) {
    step.observation.assign(env->observation_dim(), 0.0f);
    step.frame.assign(frame_bytes, 0);
  }
  batch.final_observation.assign(env->observation_dim(), 0.0f);
  return batch.serialize().size();
}

}  // namespace xt::e2e
