// Table 1 of the paper: time to transmit one training iteration's rollouts
// through the baseline frameworks, against the corresponding training time.
//
// Paper (absolute, Python + V100):
//   PPO    138,585 KB   RLLib 367.81 ms   Launchpad/Reverb 95,765.88 ms   train 1,297.53 ms
//   DQN      1,913 KB   RLLib  54.13 ms   Launchpad/Reverb    811.47 ms   train     8.00 ms
//   IMPALA  13,855 KB   RLLib 301.34 ms   Launchpad/Reverb 12,567.10 ms   train    32.07 ms
//
// Here the payloads are rebuilt at the same wire sizes (frame-carrying
// rollout steps; see DESIGN.md), transmission goes through our pull-based
// (RLLib-model) and buffer-server (Launchpad/Reverb-model) baselines, and
// training times are measured on this host's CPU MLPs. The shape to
// reproduce: for every algorithm, buffer-server transmission >> pull-based
// transmission, and transmission is not negligible against training.

#include "bench_util.h"

#include <cstring>

#include "algo/factory.h"
#include "baselines/buffer_hub.h"
#include "baselines/rpc.h"
#include "common/clock.h"
#include "common/rng.h"
#include "envs/registry.h"

namespace {

using namespace xt;
using namespace xt::bench;

/// Build a rollout fragment with SynthArcade-shaped observations plus the
/// frame payload that gives it the paper's wire size.
RolloutBatch make_fragment(std::size_t steps, std::size_t frame_bytes,
                           std::uint64_t seed) {
  Rng rng(seed);
  RolloutBatch batch;
  batch.steps.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    RolloutStep step;
    step.observation.resize(128);
    for (auto& v : step.observation) v = static_cast<float>(rng.normal());
    step.action = static_cast<std::int32_t>(rng.uniform_index(4));
    step.reward = static_cast<float>(rng.normal());
    step.behavior_logp = -1.0f;
    fill_frame(step.frame, frame_bytes, i);
    batch.steps.push_back(std::move(step));
  }
  batch.final_observation.assign(128, 0.0f);
  return batch;
}

double measure_pull_ms(const std::vector<Bytes>& messages) {
  baselines::RpcConfig rpc;
  rpc.ipc_bandwidth_bytes_per_sec = kIpcBandwidth;
  baselines::RpcTransport transport(rpc);
  const Stopwatch clock;
  for (const Bytes& message : messages) {
    (void)transport.pull(0, message);
  }
  return clock.elapsed_ms();
}

double measure_buffer_ms(const std::vector<Bytes>& messages) {
  baselines::ChunkedTransferConfig transfer;  // Reverb-style chunked RPC
  baselines::BufferServer server(transfer);
  const Stopwatch clock;
  for (const Bytes& message : messages) server.insert(message);
  for (std::size_t i = 0; i < messages.size(); ++i) (void)server.take();
  return clock.elapsed_ms();
}

struct Row {
  const char* name;
  double size_kb;
  double pull_ms;
  double buffer_ms;
  double train_ms;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = "BENCH_table1.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  banner("Table 1: Time to Transmit Rollouts and to Train");

  std::vector<Row> rows;

  // ---- PPO: 10 explorers x 500 Atari-sized steps --------------------------
  {
    std::vector<Bytes> messages;
    PpoConfig config;
    config.hidden = {64, 64};
    config.fragment_len = 500;
    config.n_explorers = 10;
    config.epochs = 4;
    config.minibatch = 512;
    PpoAlgorithm algorithm(config, 128, 4, 1);
    double total_kb = 0;
    for (int e = 0; e < 10; ++e) {
      RolloutBatch fragment = make_fragment(500, kAtariFrameBytes, e);
      fragment.weights_version = algorithm.weights_version();
      Bytes wire = fragment.serialize();
      total_kb += static_cast<double>(wire.size()) / 1024.0;
      algorithm.prepare_data(std::move(fragment));
      messages.push_back(std::move(wire));
    }
    const double pull = measure_pull_ms(messages);
    // Buffer-server measurement on one fragment, scaled to the ten the
    // learner consumes per iteration (keeps the bench under a minute; the
    // transfers are strictly sequential through the server anyway).
    const double buffer = 10.0 * measure_buffer_ms({messages.front()});
    const Stopwatch train_clock;
    (void)algorithm.train();
    rows.push_back({"PPO", total_kb, pull, buffer, train_clock.elapsed_ms()});
  }

  // ---- DQN: one 32-transition training batch ------------------------------
  {
    DqnConfig config;
    config.hidden = {64, 64};
    config.train_start = 64;
    config.batch_size = 32;
    config.frame_bytes_per_step = kAtariFrameBytes;
    DqnAlgorithm algorithm(config, 128, 4, 2);
    RolloutBatch warmup = make_fragment(128, kAtariFrameBytes, 11);
    algorithm.prepare_data(std::move(warmup));
    // The transmitted unit is the sampled batch (32 transitions with frames).
    RolloutBatch batch_sized = make_fragment(32, kAtariFrameBytes, 12);
    const Bytes wire = batch_sized.serialize();
    std::vector<Bytes> messages = {wire};
    const double pull = measure_pull_ms(messages);
    const double buffer = measure_buffer_ms(messages);
    double train_ms = 0;
    while (algorithm.ready_to_train()) {
      const Stopwatch train_clock;
      const auto result = algorithm.train();
      if (result.stats.count("warmup") == 0) {
        train_ms = train_clock.elapsed_ms();
        break;
      }
    }
    rows.push_back({"DQN", static_cast<double>(wire.size()) / 1024.0, pull,
                    buffer, train_ms});
  }

  // ---- IMPALA: one 500-step fragment --------------------------------------
  {
    ImpalaConfig config;
    config.hidden = {64, 64};
    config.fragment_len = 500;
    ImpalaAlgorithm algorithm(config, 128, 4, 3);
    RolloutBatch fragment = make_fragment(500, kAtariFrameBytes, 21);
    const Bytes wire = fragment.serialize();
    std::vector<Bytes> messages = {wire};
    const double pull = measure_pull_ms(messages);
    const double buffer = measure_buffer_ms(messages);
    algorithm.prepare_data(std::move(fragment));
    const Stopwatch train_clock;
    (void)algorithm.train();
    rows.push_back({"IMPALA", static_cast<double>(wire.size()) / 1024.0, pull,
                    buffer, train_clock.elapsed_ms()});
  }

  std::printf("\n%-8s %14s %18s %24s %14s\n", "Algo", "Rollout (KB)",
              "Pull/RLLib (ms)", "Buffer/Launchpad (ms)", "Train (ms)");
  for (const Row& row : rows) {
    std::printf("%-8s %14.1f %18.2f %24.2f %14.2f\n", row.name, row.size_kb,
                row.pull_ms, row.buffer_ms, row.train_ms);
  }

  section("shape checks vs paper Table 1");
  for (const Row& row : rows) {
    shape_check(std::string(row.name) +
                    ": buffer-server transmission >> pull-based (paper: "
                    "Launchpad/Reverb 15-260x RLLib)",
                row.buffer_ms > 3.0 * row.pull_ms);
    shape_check(std::string(row.name) +
                    ": transmission is non-negligible vs training (>10%)",
                row.pull_ms > 0.1 * row.train_ms);
  }
  // Paper: for DQN and IMPALA, transmission in RLLib EXCEEDS training time.
  shape_check("DQN: pull transmission exceeds training time",
              rows[1].pull_ms > rows[1].train_ms);
  shape_check("IMPALA: pull transmission exceeds training time",
              rows[2].pull_ms > rows[2].train_ms);

  // Machine-readable artifact for tools/perf_diff (the checked-in
  // BENCH_table1.json baseline tracks these rows across PRs).
  std::vector<std::vector<JsonField>> entries;
  for (const Row& row : rows) {
    entries.push_back({{"name", row.name},
                       {"rollout_kb", row.size_kb},
                       {"pull_ms", row.pull_ms},
                       {"buffer_ms", row.buffer_ms},
                       {"train_ms", row.train_ms}});
  }
  if (!write_artifact(json_path, "bench_table1", {}, entries)) return 1;

  return finish("bench_table1");
}
