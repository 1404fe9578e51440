#pragma once

#include <cstdint>
#include <vector>

#include "algo/factory.h"
#include "baselines/rpc.h"
#include "framework/deployment.h"

namespace xt::baselines {

/// Deployment of the pull-based baseline: the driver (central control
/// logic + learner) always lives on machine 0; workers spread per machine.
struct PullDeployment {
  std::vector<int> explorers_per_machine = {4};
  RpcConfig rpc;

  std::uint64_t max_steps_consumed = 100'000;  ///< 0 = unlimited
  double max_seconds = 0.0;
  double target_return = 0.0;
  int target_return_window = 20;
};

/// Run a full DRL algorithm on the pull-based baseline framework (the
/// RLLib model of paper Section 2.2): a central driver loop issues sample
/// tasks, pulls the results through synchronous RPC, trains, and pushes
/// weights back — communication strictly serialized with computation.
///
///  - PPO:    barrier over all workers each iteration, broadcast weights.
///  - IMPALA: pull whichever worker finished, train, reply to that worker.
///  - DQN:    one worker; replay buffer hosted in a separate replay-actor
///            process behind RPC (the Fig. 9 contrast).
///
/// Reuses the identical Agent/Algorithm/Environment implementations as the
/// XingTian runtime, so measured differences isolate the communication
/// model. Each run records its `xt_pull_*` metrics in a registry of its own
/// and dumps it into RunReport::prometheus, so XingTian and pull-based runs
/// are compared from the same exporter.
[[nodiscard]] RunReport run_pullhub(const AlgoSetup& setup,
                                    const PullDeployment& deployment);

}  // namespace xt::baselines
