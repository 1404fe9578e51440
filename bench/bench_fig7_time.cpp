// Fig. 7 of the paper: wall-clock time to finish a fixed rollout-step budget
// in Atari environments. Paper: XingTian-based IMPALA / DQN / PPO take
// 41.5% / 39.5% / 22.9% less time than the RLLib-based versions.
//
// Here both frameworks run identical algorithms on SynthBreakout with
// paper-scale message sizes (frame payloads) and the modeled IPC bandwidth,
// so the measured difference is the communication model: sender-push with
// overlap vs receiver-pull serialized with training.
//
// Shape to reproduce: XingTian completes each budget in less time.

#include "bench_util.h"

#include <cmath>

#include "baselines/pull_driver.h"
#include "envs/registry.h"
#include "envs/timed_env.h"
#include "framework/runtime.h"

namespace {

using namespace xt;
using namespace xt::bench;

AlgoSetup make_setup(AlgoKind kind) {
  AlgoSetup setup;
  setup.kind = kind;
  // DQN's single explorer must be environment-bound (as on the paper's
  // testbed) or it floods the learner on a fast host; see DESIGN.md.
  setup.env_name = kind == AlgoKind::kDqn ? "TimedBreakout" : "SynthBreakout";
  setup.seed = 5;
  setup.impala.hidden = {64, 64};
  setup.impala.fragment_len = 500;              // the paper's Atari fragment
  setup.impala.frame_bytes_per_step = kAtariFrameBytes;
  setup.ppo.hidden = {64, 64};
  setup.ppo.fragment_len = 500;
  setup.ppo.n_explorers = 4;
  setup.ppo.epochs = 2;
  setup.ppo.minibatch = 512;
  setup.ppo.frame_bytes_per_step = kAtariFrameBytes;
  setup.dqn.hidden = {64, 64};
  setup.dqn.replay_capacity = 4'000;  // bounded: transitions carry frames
  setup.dqn.train_start = 500;
  setup.dqn.eps_decay_steps = 2'000;
  setup.dqn.frame_bytes_per_step = 8'000;  // DQN messages are smaller (Table 1)
  return setup;
}

}  // namespace

int main() {
  banner("Fig. 7: Time to Complete a Fixed Step Budget (SynthBreakout)");
  register_environment("TimedBreakout", [] {
    return std::make_unique<TimedEnv>(make_environment("SynthBreakout"),
                                      500'000);  // 0.5 ms emulator step
  });
  std::printf("modeled IPC bandwidth: %.0f MB/s (see DESIGN.md)\n",
              kIpcBandwidth / 1e6);

  struct Case {
    AlgoKind kind;
    const char* name;
    int explorers;
    std::uint64_t steps;
    double paper_saving;  ///< paper: fraction of time XingTian saves
  };
  const Case kCases[] = {
      {AlgoKind::kImpala, "IMPALA", 4, 10'000, 0.4154},
      {AlgoKind::kDqn, "DQN", 1, 2'500, 0.3947},
      {AlgoKind::kPpo, "PPO", 4, 8'000, 0.2292},
  };

  std::printf("\n%-8s %10s %14s %14s %14s %18s\n", "Algo", "steps",
              "XingTian (s)", "Pull (s)", "XT saving", "paper saving");
  for (const Case& test_case : kCases) {
    AlgoSetup setup = make_setup(test_case.kind);

    DeploymentConfig xt_deploy;
    xt_deploy.explorers_per_machine = {test_case.explorers};
    xt_deploy.broker.compression.enabled = false;
    // Plasma-style backpressure: bounded send buffers keep 14 MB fragments
    // from piling up when explorers outrun the paced channel.
    xt_deploy.explorer_send_capacity = 2;
    xt_deploy.broker.ipc_bandwidth_bytes_per_sec = kIpcBandwidth;
    xt_deploy.max_steps_consumed = test_case.steps;
    xt_deploy.max_seconds = 120.0;
    // Continuous profiling on the XingTian run: the trace ring feeds the
    // critical-path breakdown below, the sampler the per-thread profile.
    xt_deploy.obs.tracing = true;
    xt_deploy.obs.trace_capacity = 1 << 17;
    xt_deploy.profile.enabled = true;
    XingTianRuntime runtime(setup, xt_deploy);
    const RunReport xt_report = runtime.run();

    baselines::PullDeployment pull_deploy;
    pull_deploy.explorers_per_machine = {test_case.explorers};
    pull_deploy.rpc.ipc_bandwidth_bytes_per_sec = kIpcBandwidth;
    pull_deploy.max_steps_consumed = test_case.steps;
    pull_deploy.max_seconds = 240.0;
    const RunReport pull_report = baselines::run_pullhub(setup, pull_deploy);

    const double saving =
        1.0 - xt_report.wall_seconds / pull_report.wall_seconds;
    std::printf("%-8s %10llu %14.2f %14.2f %13.1f%% %17.1f%%\n",
                test_case.name,
                static_cast<unsigned long long>(test_case.steps),
                xt_report.wall_seconds, pull_report.wall_seconds,
                saving * 100.0, test_case.paper_saving * 100.0);

    print_time_breakdown("XingTian:", xt_report);
    print_time_breakdown("Pull:", pull_report);

    // Bottleneck attribution: the per-stage decomposition of every traced
    // message lifecycle, computed from the trace ring (Fig. 7's bars).
    const CriticalPathReport& cp = xt_report.critical_path;
    std::printf("  critical path: %llu message(s), mean e2e %.2f ms, "
                "dominant '%s' (%.0f%%)\n",
                static_cast<unsigned long long>(cp.messages),
                cp.mean_end_to_end_ms, cp.dominant_stage.c_str(),
                cp.dominant_share * 100.0);
    double stage_sum_ms = 0.0;
    for (const StageBreakdown& stage : cp.stages) {
      std::printf("    %-14s %10.1f ms total  %8.3f ms/msg  %5.1f%%\n",
                  stage.stage.c_str(), stage.total_ms, stage.mean_ms,
                  stage.share * 100.0);
      stage_sum_ms += stage.total_ms;
    }
    if (!xt_report.thread_profiles.empty()) {
      std::printf("  busiest threads:");
      for (std::size_t i = 0; i < xt_report.thread_profiles.size() && i < 4; ++i) {
        const ThreadProfile& thread = xt_report.thread_profiles[i];
        std::printf(" %s:%.0f%%", thread.name.c_str(), thread.busy_pct);
      }
      std::printf("\n");
    }

    shape_check(std::string(test_case.name) +
                    ": XingTian finishes the budget faster",
                xt_report.wall_seconds < pull_report.wall_seconds);
    shape_check(std::string(test_case.name) +
                    ": critical path reconstructed traced lifecycles",
                cp.messages > 0);
    shape_check(std::string(test_case.name) + ": dominant stage identified",
                !cp.dominant_stage.empty());
    // The stage decomposition must account for the end-to-end latency it
    // attributes: stage totals (incl. the explicit unattributed bucket) sum
    // to the measured e2e within 5%.
    const double sum_error =
        cp.total_end_to_end_ms > 0.0
            ? std::abs(stage_sum_ms - cp.total_end_to_end_ms) /
                  cp.total_end_to_end_ms
            : 1.0;
    shape_check(std::string(test_case.name) +
                    ": stage breakdown sums to e2e latency within 5%",
                sum_error <= 0.05);
  }

  return finish("bench_fig7_time");
}
