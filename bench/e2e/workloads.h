#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/factory.h"
#include "framework/deployment.h"

namespace xt::e2e {

/// One traffic workload of xt_bench. A workload sets only the traffic: the
/// algorithm, network size, message shape, machines, explorers and the
/// modeled IPC and NIC rates. Mechanism options (router shards, coalescing,
/// reliability, overload, codecs) stay at their defaults, so a change to a
/// default is measured rather than masked. Why each workload exists is in
/// BENCHMARK.json and README.md.
struct Workload {
  const char* name;
  /// Percentile reported as rollout_latency_tail_ms. Fixed per workload: the
  /// highest one that keeps at least ten samples beyond it in a run of the
  /// default length and stays steady from run to run.
  double tail_quantile;
  /// Learner-consumed steps/s on a 4-core x86 host. A run below a quarter of
  /// this fails its rate check (the time-cap analogue: 4x the expected time).
  double expected_steps_per_s;
  /// Runtime constructions per untraced run; setup_s is their median.
  int setups;
  /// Fills the workload's algorithm and deployment on top of the defaults.
  void (*configure)(AlgoSetup& algo, DeploymentConfig& deploy);
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The workload's algorithm setup; the seed is the only input it varies.
[[nodiscard]] AlgoSetup make_algo_setup(const Workload& workload, std::uint64_t seed);
/// The workload's deployment, running for `seconds` of wall time.
[[nodiscard]] DeploymentConfig make_deployment(const Workload& workload,
                                               double seconds);

/// Registers the environments the workloads name that are not built in.
/// Idempotent; call before constructing a runtime or a probe.
void register_benchmark_envs();

/// Serialized size of one rollout message of the workload's shape: what the
/// learner must receive per message when nothing is lost or reshaped.
[[nodiscard]] std::size_t expected_rollout_bytes(const Workload& workload);

}  // namespace xt::e2e
