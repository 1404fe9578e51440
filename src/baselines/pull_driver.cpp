#include "baselines/pull_driver.h"

#include <cassert>
#include <thread>

#include "baselines/pull_worker.h"
#include "baselines/remote_replay.h"
#include "common/clock.h"
#include "common/log.h"
#include "common/thread_util.h"
#include "envs/registry.h"
#include "obs/catalog.h"
#include "obs/exporters.h"
#include "obs/metrics.h"

namespace xt::baselines {
namespace {

struct DriverState {
  explicit DriverState(MetricsRegistry& registry)
      : wait_hist(registry.histogram(metric::xt_pull_wait_ms)),
        train_hist(registry.histogram(metric::xt_pull_train_ms)),
        transmission_hist(registry.histogram(metric::xt_pull_transmission_ms)),
        pulls(registry.counter(metric::xt_pull_messages_total)),
        pull_bytes(registry.counter(metric::xt_pull_bytes_total)) {}

  ThroughputSeries throughput{1.0};
  LatencyRecorder wait_ms;  ///< RunReport.wait_cdf (Fig. 8(c))
  Histogram& wait_hist;     ///< time blocked pulling rollouts per session
  Histogram& train_hist;
  Histogram& transmission_hist;  ///< per-message pull duration
  Counter& pulls;                ///< RunReport.rollout_messages
  Counter& pull_bytes;           ///< RunReport.rollout_bytes
  std::uint64_t steps_consumed = 0;
  int sessions = 0;
  std::uint64_t weight_broadcasts = 0;

  void add_wait(double ms) {
    wait_ms.add(ms);
    wait_hist.observe(ms);
  }
};

bool goal_reached(const PullDeployment& deployment, const DriverState& state,
                  const Stopwatch& clock, const ReturnsCollector& returns) {
  if (deployment.max_steps_consumed > 0 &&
      state.steps_consumed >= deployment.max_steps_consumed) {
    return true;
  }
  if (deployment.max_seconds > 0.0 &&
      clock.elapsed_s() >= deployment.max_seconds) {
    return true;
  }
  if (deployment.target_return > 0.0 &&
      returns.episodes() >=
          static_cast<std::uint64_t>(deployment.target_return_window) &&
      returns.recent_mean(deployment.target_return_window) >=
          deployment.target_return) {
    return true;
  }
  return false;
}

void consume(DriverState& state, Algorithm& algorithm, const Bytes& data) {
  state.pulls.inc();
  state.pull_bytes.inc(data.size());
  auto batch = RolloutBatch::deserialize(data);
  if (batch) algorithm.prepare_data(std::move(*batch));
}

void train_once(DriverState& state, Algorithm& algorithm, const Stopwatch& clock,
                Algorithm::TrainResult& result) {
  Stopwatch train_clock;
  result = algorithm.train();
  state.train_hist.observe(train_clock.elapsed_ms());
  state.steps_consumed += result.steps_consumed;
  ++state.sessions;
  state.throughput.add(clock.elapsed_s(),
                       static_cast<double>(result.steps_consumed));
}

}  // namespace

RunReport run_pullhub(const AlgoSetup& setup, const PullDeployment& deployment) {
  const auto n_machines =
      static_cast<std::uint16_t>(deployment.explorers_per_machine.size());
  auto probe = make_environment(setup.env_name);
  assert(probe && "unknown environment name");
  const std::size_t obs_dim = probe->observation_dim();
  const std::int32_t n_actions = probe->action_count();

  RpcTransport transport(deployment.rpc);
  ReturnsCollector returns;

  std::vector<std::unique_ptr<PullWorker>> workers;
  std::uint32_t index = 0;
  for (std::uint16_t m = 0; m < n_machines; ++m) {
    for (int i = 0; i < deployment.explorers_per_machine[m]; ++i) {
      workers.push_back(std::make_unique<PullWorker>(
          m, index, make_environment(setup.env_name),
          make_agent(setup, obs_dim, n_actions, index), transport, &returns));
      ++index;
    }
  }

  std::unique_ptr<RemoteReplayActor> replay_actor;
  std::unique_ptr<Algorithm> algorithm;
  if (setup.kind == AlgoKind::kDqn) {
    replay_actor = std::make_unique<RemoteReplayActor>(
        setup.dqn.replay_capacity, setup.seed ^ 0xEEFULL,
        deployment.rpc.dispatch_ns);
    algorithm = std::make_unique<RemoteReplayDqn>(setup.dqn, obs_dim, n_actions,
                                                  setup.seed, *replay_actor);
  } else {
    algorithm = make_algorithm(setup, obs_dim, n_actions);
  }

  MetricsRegistry registry;
  DriverState state(registry);
  const Stopwatch clock;

  if (setup.kind == AlgoKind::kPpo || setup.kind == AlgoKind::kA2c) {
    // Synchronous PPO: the central logic makes all workers sample, pulls
    // everything, trains, then broadcasts — each phase strictly after the
    // previous one (paper Section 2.2 / Fig. 10).
    while (!goal_reached(deployment, state, clock, returns)) {
      std::vector<PullWorker::Ticket> tickets;
      tickets.reserve(workers.size());
      for (auto& worker : workers) tickets.push_back(worker->sample_async());

      Stopwatch wait_clock;
      for (std::size_t i = 0; i < workers.size(); ++i) {
        Stopwatch pull_clock;
        const Bytes data = workers[i]->sample_get(std::move(tickets[i]));
        state.transmission_hist.observe(pull_clock.elapsed_ms());
        consume(state, *algorithm, data);
      }
      state.add_wait(wait_clock.elapsed_ms());
      if (!algorithm->ready_to_train()) continue;

      Algorithm::TrainResult result;
      train_once(state, *algorithm, clock, result);

      const Bytes weights = algorithm->weights();
      for (auto& worker : workers) {
        worker->set_weights(weights, algorithm->weights_version());
      }
      state.weight_broadcasts += 1;
    }
  } else if (setup.kind == AlgoKind::kImpala) {
    // Async IMPALA on the pull model: one outstanding sample per worker;
    // the driver polls for a finished task, pulls it (paying the transfer
    // on its own thread), trains, replies with weights, resubmits.
    std::vector<PullWorker::Ticket> tickets;
    tickets.reserve(workers.size());
    for (auto& worker : workers) tickets.push_back(worker->sample_async());

    while (!goal_reached(deployment, state, clock, returns)) {
      Stopwatch wait_clock;
      std::size_t chosen = workers.size();
      while (chosen == workers.size()) {
        for (std::size_t i = 0; i < workers.size(); ++i) {
          if (tickets[i].ready()) {
            chosen = i;
            break;
          }
        }
        if (chosen == workers.size()) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          if (goal_reached(deployment, state, clock, returns)) break;
        }
      }
      if (chosen == workers.size()) break;

      Stopwatch pull_clock;
      const Bytes data = workers[chosen]->sample_get(std::move(tickets[chosen]));
      state.transmission_hist.observe(pull_clock.elapsed_ms());
      state.add_wait(wait_clock.elapsed_ms());
      consume(state, *algorithm, data);

      Algorithm::TrainResult result;
      train_once(state, *algorithm, clock, result);

      workers[chosen]->set_weights(algorithm->weights(),
                                   algorithm->weights_version());
      state.weight_broadcasts += 1;
      tickets[chosen] = workers[chosen]->sample_async();
    }
  } else {
    // DQN: single worker feeding the remote replay actor.
    assert(workers.size() == 1 && "paper's DQN setup uses one explorer");
    auto& worker = *workers.front();
    int sessions_since_broadcast = 0;
    while (!goal_reached(deployment, state, clock, returns)) {
      PullWorker::Ticket ticket = worker.sample_async();
      Stopwatch wait_clock;
      Stopwatch pull_clock;
      const Bytes data = worker.sample_get(std::move(ticket));
      state.transmission_hist.observe(pull_clock.elapsed_ms());
      consume(state, *algorithm, data);  // forwards into the replay actor
      state.add_wait(wait_clock.elapsed_ms());
      if (!algorithm->ready_to_train()) continue;

      Algorithm::TrainResult result;
      train_once(state, *algorithm, clock, result);

      if (result.stats.count("warmup") == 0 &&
          ++sessions_since_broadcast >= algorithm->broadcast_interval()) {
        worker.set_weights(algorithm->weights(), algorithm->weights_version());
        state.weight_broadcasts += 1;
        sessions_since_broadcast = 0;
      }
    }
  }

  const double wall = clock.elapsed_s();
  for (auto& worker : workers) worker->stop();
  if (replay_actor) replay_actor->stop();

  RunReport report;
  report.steps_consumed = state.steps_consumed;
  report.training_sessions = state.sessions;
  report.wall_seconds = wall;
  report.avg_episode_return =
      returns.recent_mean(deployment.target_return_window);
  report.episodes = returns.episodes();
  report.avg_throughput =
      wall > 0 ? static_cast<double>(state.steps_consumed) / wall : 0.0;
  report.throughput_series = state.throughput.series();
  report.mean_transmission_ms = state.transmission_hist.mean();
  report.mean_wait_ms = state.wait_hist.mean();
  report.mean_train_ms = state.train_hist.mean();
  if (const Histogram* sample = algorithm->replay_sample_latency()) {
    report.mean_replay_sample_ms = sample->mean();
  }
  report.wait_cdf = state.wait_ms.cdf(101);
  report.rollout_messages = state.pulls.value();
  report.rollout_bytes = state.pull_bytes.value();
  report.weight_broadcasts = state.weight_broadcasts;
  report.prometheus = prometheus_text(registry);
  return report;
}

}  // namespace xt::baselines
