// The configuration-file launcher — the C++ analogue of starting XingTian
// from its config file (paper Section 3.2.2: machines, learner placement,
// explorer counts, algorithm hyperparameters all come from the file).
//
//   ./build/examples/xt_run configs/impala_breakout.conf
//
// Sample configurations live in configs/.

#include <cstdio>

#include "framework/config_file.h"
#include "framework/runtime.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <config-file>\n", argv[0]);
    return 2;
  }

  std::string error;
  const auto config = xt::load_launch_config(argv[1], &error);
  if (!config) {
    std::fprintf(stderr, "%s: %s\n", argv[1], error.c_str());
    return 2;
  }

  std::printf("launching %s on %s: %lld explorer(s) across %zu machine(s), "
              "learner on machine %u\n",
              xt::algo_kind_name(config->setup.kind),
              config->setup.env_name.c_str(),
              static_cast<long long>(config->deployment.total_explorers()),
              config->deployment.explorers_per_machine.size(),
              config->deployment.learner_machine);

  xt::XingTianRuntime runtime(config->setup, config->deployment);
  const xt::RunReport report = runtime.run();

  std::printf("finished: %llu steps in %.1f s (%.0f steps/s), "
              "%d sessions, avg return %.2f over %llu episodes\n",
              static_cast<unsigned long long>(report.steps_consumed),
              report.wall_seconds, report.avg_throughput,
              report.training_sessions, report.avg_episode_return,
              static_cast<unsigned long long>(report.episodes));
  if (!config->deployment.stats_csv_path.empty()) {
    std::printf("statistics written to %s\n",
                config->deployment.stats_csv_path.c_str());
  }
  return 0;
}
