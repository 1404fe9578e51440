// The probe.* metrics: isolated calls into public functions of each layer,
// on the workload's own inputs (its env, its agent, a rollout fragment the
// agent really produced, its algorithm's weights). A probe moving without
// the in-run layer metric moving points at contention, not at the layer.

#include <algorithm>
#include <functional>

#include "common/clock.h"
#include "comm/object_store.h"
#include "compress/codec.h"
#include "compress/weight_codec.h"
#include "envs/registry.h"
#include "measure.h"

namespace xt::e2e {
namespace {

/// A rep is timed as one span; calls cheaper than this are batched into a
/// rep so clock reads do not dominate.
constexpr std::int64_t kMinRepNs = 50'000;
constexpr int kMinReps = 5;
constexpr int kMaxReps = 200;

/// Times `call` in reps until both kMinReps reps and `budget_s` have passed
/// (or kMaxReps reps). Returns the median per-call time in `scale` units
/// (1e3 = microseconds, 1e6 = milliseconds). `setup` runs untimed before
/// each call, for inputs a call consumes.
double probe(SpanLog& spans, int parent, const std::string& name, double budget_s,
             double scale, const std::function<void()>& call,
             const std::function<void()>& setup = {}) {
  if (setup) setup();
  const Stopwatch calibrate;
  call();
  const std::int64_t once_ns = std::max<std::int64_t>(1, calibrate.elapsed_ns());
  const int batch = setup ? 1
                          : static_cast<int>(std::clamp<std::int64_t>(
                                kMinRepNs / once_ns, 1, 10'000));
  std::vector<double> per_call;
  const Stopwatch budget;
  while (per_call.size() < static_cast<std::size_t>(kMaxReps) &&
         (per_call.size() < static_cast<std::size_t>(kMinReps) ||
          budget.elapsed_s() < budget_s)) {
    if (setup) setup();
    const int span = spans.open(name, parent);
    const Stopwatch clock;
    for (int i = 0; i < batch; ++i) call();
    const std::int64_t elapsed = clock.elapsed_ns();
    spans.close(span);
    per_call.push_back(static_cast<double>(elapsed) / batch / scale);
  }
  return summarize(std::move(per_call)).median;
}

constexpr double kUs = 1e3;
constexpr double kMs = 1e6;

}  // namespace

std::vector<Metric> run_probes(const Workload& workload, std::uint64_t seed,
                               double budget_s, SpanLog& spans, int parent) {
  register_benchmark_envs();
  const AlgoSetup algo = make_algo_setup(workload, seed);
  auto env = make_environment(algo.env_name);
  const std::size_t obs_dim = env->observation_dim();
  const std::int32_t n_actions = env->action_count();
  auto agent = make_agent(algo, obs_dim, n_actions, 0);

  // The agent's own first fragment, produced the way an explorer does.
  std::uint64_t episode_seed = seed;
  std::vector<float> obs = env->reset(episode_seed++);
  while (!agent->batch_ready()) {
    const std::int32_t action = agent->infer_action(obs);
    StepResult step = env->step(action);
    agent->handle_env_feedback(obs, action, step.reward, step.done, step.observation);
    obs = step.done ? env->reset(episode_seed++) : std::move(step.observation);
  }
  const RolloutBatch fragment = agent->take_batch();

  std::vector<Metric> out;
  out.push_back({"probe.env_step_us",
                 probe(spans, parent, "probe.env_step_us", budget_s, kUs, [&] {
                   if (env->step(0).done) (void)env->reset(episode_seed++);
                 })});
  out.push_back({"probe.infer_us",
                 probe(spans, parent, "probe.infer_us", budget_s, kUs,
                       [&] { (void)agent->infer_action(obs); })});

  const Payload wire = make_payload(fragment.serialize());
  out.push_back({"probe.serialize_ms",
                 probe(spans, parent, "probe.serialize_ms", budget_s, kMs,
                       [&] { (void)fragment.serialize(); })});
  out.push_back({"probe.deserialize_ms",
                 probe(spans, parent, "probe.deserialize_ms", budget_s, kMs,
                       [&] { (void)RolloutBatch::deserialize(*wire); })});

  const CompressionConfig compression;  // the runtime's default policy
  const EncodedBody encoded = maybe_compress(wire, compression);
  out.push_back({"probe.compress_ms",
                 probe(spans, parent, "probe.compress_ms", budget_s, kMs,
                       [&] { (void)maybe_compress(wire, compression); })});
  out.push_back(
      {"probe.decompress_ms",
       probe(spans, parent, "probe.decompress_ms", budget_s, kMs, [&] {
         (void)maybe_decompress(encoded.data, encoded.compressed,
                                encoded.uncompressed_size);
       })});

  ObjectStore store;
  out.push_back({"probe.store_put_fetch_us",
                 probe(spans, parent, "probe.store_put_fetch_us", budget_s, kUs, [&] {
                   (void)store.fetch(store.put(encoded.data, 1));
                 })});

  // One training session on fragments of the workload's shape: PPO waits for
  // one fresh fragment per explorer, DQN first fills replay to train_start.
  auto algorithm = make_algorithm(algo, obs_dim, n_actions);
  std::vector<RolloutBatch> inputs;
  auto refill = [&] {
    inputs.clear();
    const std::size_t count = algo.kind == AlgoKind::kPpo ? algo.ppo.n_explorers : 1;
    for (std::size_t i = 0; i < count; ++i) {
      RolloutBatch batch = fragment;
      batch.weights_version = algorithm->weights_version();
      batch.explorer_index = static_cast<std::uint32_t>(i);
      inputs.push_back(std::move(batch));
    }
  };
  if (algo.kind == AlgoKind::kDqn) {
    const std::size_t warmup = algo.dqn.train_start / fragment.steps.size() + 1;
    for (std::size_t i = 0; i < warmup; ++i) {
      algorithm->prepare_data(fragment);
      while (algorithm->ready_to_train()) (void)algorithm->train();
    }
  }
  out.push_back({"probe.train_ms", probe(
                                       spans, parent, "probe.train_ms", budget_s, kMs,
                                       [&] {
                                         for (RolloutBatch& batch : inputs) {
                                           algorithm->prepare_data(std::move(batch));
                                         }
                                         while (algorithm->ready_to_train()) {
                                           (void)algorithm->train();
                                         }
                                       },
                                       refill)});

  const Bytes weights = algorithm->weights();
  const WeightSyncConfig weight_sync;  // the runtime's default codec
  const auto frame = encode_weight_frame(weights, algorithm->weights_version(),
                                         weight_sync, true, nullptr, 0);
  out.push_back(
      {"probe.weights_encode_ms",
       probe(spans, parent, "probe.weights_encode_ms", budget_s, kMs, [&] {
         (void)encode_weight_frame(weights, 1, weight_sync, true, nullptr, 0);
       })});
  out.push_back({"probe.weights_decode_ms",
                 probe(spans, parent, "probe.weights_decode_ms", budget_s, kMs, [&] {
                   (void)decode_weight_frame(frame->payload, nullptr);
                 })});
  return out;
}

}  // namespace xt::e2e
