#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/clock.h"
#include "framework/runtime.h"

namespace xt::e2e {
namespace {

/// The measurement window opens this far from the first consumed step to the
/// deadline, so start-up transients (empty queues, DQN warm-up) stay out.
constexpr double kWarmupShare = 0.2;
/// The sampler snapshots this long before run() reaches max_seconds, so the
/// snapshot never sees teardown (in-flight frames dropped at shutdown).
constexpr std::int64_t kDeadlineMarginNs = 30'000'000;
/// A setup that has not consumed a step by then fails the run.
constexpr std::int64_t kSetupCapNs = 30'000'000'000;
/// Holds every span of a default-length traced run without wrapping.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;
/// Critical-path stages (the analyzer's names) and the metric each feeds.
constexpr std::pair<const char*, const char*> kPathStages[] = {
    {"serialize", "path.serialize_ms"},
    {"compress", "path.compress_ms"},
    {"store.put", "path.store_put_ms"},
    {"route", "path.route_ms"},
    {"pipe.transmit", "path.pipe_transmit_ms"},
    {"rehost", "path.rehost_ms"},
    {"queue.wait", "path.queue_wait_ms"},
    {"recv", "path.recv_ms"},
};

bool in_family(const std::string& name, std::string_view family) {
  return name.compare(0, family.size(), family) == 0 &&
         (name.size() == family.size() || name[family.size()] == '{');
}

bool has_labels(const std::string& name, std::string_view label,
                std::string_view exclude) {
  return (label.empty() || name.find(label) != std::string::npos) &&
         (exclude.empty() || name.find(exclude) == std::string::npos);
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// Registry values at one instant. Families are matched like the runtime's
/// RunReport derivation: `family` or `family{labels}`.
struct RegistrySnapshot {
  struct HistogramState {
    std::string name;
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramState> histograms;

  static RegistrySnapshot take(const MetricsRegistry& registry) {
    RegistrySnapshot snapshot;
    snapshot.counters = registry.counters();
    for (const auto& [name, histogram] : registry.histograms()) {
      snapshot.histograms.push_back({name, histogram->sum(), histogram->count()});
    }
    return snapshot;
  }

  /// Sum of the family's counters whose labels contain `label` and not
  /// `exclude` (either may be empty).
  [[nodiscard]] std::uint64_t total(std::string_view family,
                                    std::string_view label = {},
                                    std::string_view exclude = {}) const {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : counters) {
      if (in_family(name, family) && has_labels(name, label, exclude)) sum += value;
    }
    return sum;
  }

  [[nodiscard]] double sum(std::string_view family, std::string_view label = {}) const {
    double out = 0.0;
    for (const HistogramState& h : histograms) {
      if (in_family(h.name, family) && has_labels(h.name, label, {})) out += h.sum;
    }
    return out;
  }

  [[nodiscard]] double mean(std::string_view family) const {
    double total_sum = 0.0;
    std::uint64_t total_count = 0;
    for (const HistogramState& h : histograms) {
      if (!in_family(h.name, family)) continue;
      total_sum += h.sum;
      total_count += h.count;
    }
    return total_count > 0 ? total_sum / static_cast<double>(total_count) : 0.0;
  }
};

/// Messages lost for any reason: broker drops (the per-machine totals, not
/// the per-reason breakdown), sheds at every bounded stage, and weight frames
/// a decoder rejected.
std::uint64_t lost_messages(const RegistrySnapshot& s) {
  return s.total("xt_broker_dropped_total", {}, "reason=") +
         s.total("xt_messages_shed_total") + s.total("xt_frames_shed_total") +
         s.total("xt_weights_decode_failures_total");
}

/// What the benchmark's sampler thread records during one run.
struct Timeline {
  std::int64_t start_ns = 0;       ///< before runtime construction
  std::int64_t first_step_ns = 0;  ///< 0 until the learner consumes a step
  std::int64_t window_start_ns = 0;
  std::int64_t deadline_ns = 0;
  /// (time, learner steps) at every change of learner_steps().
  std::vector<std::pair<std::int64_t, std::uint64_t>> changes;
  RegistrySnapshot at_window_start;
  RegistrySnapshot at_deadline;
  std::uint64_t steps = 0;
  std::uint64_t rollout_messages = 0;
  std::uint64_t rollout_bytes = 0;
  std::size_t latency_samples = 0;
  double latency_p50_ms = 0.0;
  double latency_tail_ms = 0.0;
  double episode_return = 0.0;
};

/// The sampler: polls learner_steps() (every 50 us until the first step,
/// then every 1 ms) to time setup and find the window, snapshots counters
/// when the window opens, and snapshots everything at the deadline.
void sample_run(XingTianRuntime& runtime, double tail_quantile, Timeline& tl) {
  bool window_taken = false;
  std::uint64_t last_steps = 0;
  while (true) {
    const std::int64_t now = now_ns();
    if (now >= tl.deadline_ns) break;
    const std::uint64_t steps = runtime.learner_steps();
    if (steps != last_steps) {
      last_steps = steps;
      tl.changes.emplace_back(now, steps);
      if (tl.first_step_ns == 0) {
        tl.first_step_ns = now;
        tl.window_start_ns =
            now + static_cast<std::int64_t>(
                      kWarmupShare * static_cast<double>(tl.deadline_ns - now));
      }
    }
    if (!window_taken && tl.first_step_ns != 0 && now >= tl.window_start_ns) {
      tl.at_window_start = RegistrySnapshot::take(runtime.metrics());
      window_taken = true;
    }
    std::this_thread::sleep_for(tl.first_step_ns == 0
                                    ? std::chrono::microseconds(50)
                                    : std::chrono::microseconds(1000));
  }
  tl.at_deadline = RegistrySnapshot::take(runtime.metrics());
  if (!window_taken) tl.at_window_start = tl.at_deadline;
  tl.steps = runtime.learner_steps();
  const LearnerProcess& learner = runtime.learner();
  tl.rollout_messages = learner.rollout_messages();
  tl.rollout_bytes = learner.rollout_bytes();
  const LatencyRecorder& latency = learner.transmission_ms();
  tl.latency_samples = latency.count();
  tl.latency_p50_ms = latency.quantile(0.5);
  tl.latency_tail_ms = latency.quantile(tail_quantile);
  tl.episode_return = runtime.recent_return();
}

/// Learner-consumed steps/s between the first and the last consumption
/// inside the window. Event-to-event timing avoids the quantization a fixed
/// window would add (an IMPALA run consumes 500 steps at a time).
struct WindowRate {
  double steps_per_s = 0.0;
  std::size_t events = 0;
};

WindowRate window_rate(const Timeline& tl) {
  WindowRate rate;
  const std::pair<std::int64_t, std::uint64_t>* first = nullptr;
  const std::pair<std::int64_t, std::uint64_t>* last = nullptr;
  for (const auto& change : tl.changes) {
    if (change.first < tl.window_start_ns) continue;
    if (first == nullptr) first = &change;
    last = &change;
    ++rate.events;
  }
  if (first == nullptr || last == first) return rate;
  rate.steps_per_s = static_cast<double>(last->second - first->second) /
                     ns_to_s(last->first - first->first);
  return rate;
}

struct Measured {
  Timeline timeline;
  RunReport report;
  WindowRate rate;
};

/// One run as a user would make it: construct, run() to max_seconds, with
/// the sampler thread watching from outside.
Measured measured_run(const Workload& workload, const AlgoSetup& algo,
                      const DeploymentConfig& deploy, double seconds,
                      SpanLog& spans, const char* span_name) {
  Measured m;
  Timeline& tl = m.timeline;
  tl.start_ns = now_ns();
  const int run_span = spans.open(span_name);
  {
    XingTianRuntime runtime(algo, deploy);
    tl.deadline_ns =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9) - kDeadlineMarginNs;
    std::jthread sampler([&runtime, &workload, &tl] {
      sample_run(runtime, workload.tail_quantile, tl);
    });
    m.report = runtime.run();
  }
  spans.close(run_span);
  if (tl.first_step_ns != 0) {
    spans.add("bench.setup", tl.start_ns, tl.first_step_ns, run_span);
  }
  m.rate = window_rate(tl);
  return m;
}

/// Construct, wait for the first consumed step, tear down. Seconds to the
/// first step, or -1 when none came within the cap.
double setup_only(const AlgoSetup& algo, const DeploymentConfig& deploy,
                  SpanLog& spans) {
  SpanScope span(spans, "bench.setup");
  const std::int64_t start = now_ns();
  XingTianRuntime runtime(algo, deploy);
  while (runtime.learner_steps() == 0) {
    if (now_ns() - start > kSetupCapNs) return -1.0;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return ns_to_s(now_ns() - start);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void put(RunResult& result, const char* name, double value) {
  result.metrics.push_back({name, value});
}

std::string format(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// The correctness checks every run makes; `prefix` tells the two runs of a
/// traced invocation apart.
void add_checks(const Workload& workload, const DeploymentConfig& deploy,
                const Measured& m, const std::string& prefix, RunResult& result) {
  const Timeline& tl = m.timeline;
  const double floor = workload.expected_steps_per_s / 4.0;
  result.checks.push_back(
      {prefix + "rate",
       m.rate.events >= 2 && m.rate.steps_per_s >= floor,
       format("%.1f steps/s in the window, floor %.1f", m.rate.steps_per_s, floor)});

  bool applied = true;
  std::string detail;
  for (std::size_t machine = 0; machine < deploy.explorers_per_machine.size();
       ++machine) {
    const int explorers = deploy.explorers_per_machine[machine];
    if (explorers == 0) continue;
    const std::uint64_t count = tl.at_deadline.total(
        "xt_weights_applied_total",
        "machine=\"" + std::to_string(machine) + "\"");
    applied = applied && count >= static_cast<std::uint64_t>(explorers);
    detail += "m" + std::to_string(machine) + ": " + std::to_string(count) +
              " applied by " + std::to_string(explorers) + " explorer(s); ";
  }
  const std::uint64_t decode_failures =
      tl.at_deadline.total("xt_weights_decode_failures_total");
  detail += std::to_string(decode_failures) + " decode failure(s)";
  result.checks.push_back({prefix + "weights_applied", applied && decode_failures == 0,
                           detail});

  const std::size_t expected = expected_rollout_bytes(workload);
  result.checks.push_back(
      {prefix + "rollout_bytes",
       tl.rollout_messages > 0 && tl.rollout_bytes == tl.rollout_messages * expected,
       std::to_string(tl.rollout_bytes) + " B over " +
           std::to_string(tl.rollout_messages) + " message(s), " +
           std::to_string(expected) + " B expected each"});

  result.checks.push_back({prefix + "return_finite", std::isfinite(tl.episode_return),
                           format("recent return %.3f", tl.episode_return)});
}

void add_end_to_end(const Measured& m, double setup_s, double rss_mb,
                    RunResult& result) {
  const Timeline& tl = m.timeline;
  put(result, "steps_per_s", m.rate.steps_per_s);
  put(result, "setup_s", setup_s);
  put(result, "rollout_latency_p50_ms", tl.latency_p50_ms);
  put(result, "rollout_latency_tail_ms", tl.latency_tail_ms);
  put(result, "peak_rss_mb", rss_mb);
  put(result, "comm_bytes_per_step",
      share(static_cast<double>(tl.at_deadline.total("xt_store_put_bytes_total")),
            static_cast<double>(tl.steps)));
  put(result, "rollout_latency_samples", static_cast<double>(tl.latency_samples));
  put(result, "episode_return", tl.episode_return);
}

void count_window(const Measured& m, RunResult& result) {
  const Timeline& tl = m.timeline;
  result.attempted = tl.at_deadline.total("xt_messages_sent_total") -
                     tl.at_window_start.total("xt_messages_sent_total");
  result.failed = lost_messages(tl.at_deadline) - lost_messages(tl.at_window_start);
}

/// Self time per message of one critical-path stage (0 when absent).
double stage_mean_ms(const CriticalPathReport& cp, const char* stage) {
  for (const StageBreakdown& entry : cp.stages) {
    if (entry.stage == stage) return entry.mean_ms;
  }
  return 0.0;
}

void add_per_layer(const DeploymentConfig& deploy, const Measured& traced,
                   double untraced_steps_per_s, RunResult& result) {
  const Timeline& tl = traced.timeline;
  const RegistrySnapshot& s = tl.at_deadline;

  const double wait_ms = s.sum("xt_learner_wait_ms");
  const double train_ms = s.sum("xt_learner_train_ms");
  put(result, "framework.learner_wait_share", share(wait_ms, wait_ms + train_ms));
  put(result, "framework.explorer_batch_ms", s.mean("xt_explorer_rollout_ms"));
  put(result, "framework.weights_publish_to_apply_ms",
      s.mean("xt_weights_broadcast_ms"));
  put(result, "framework.explorer_weights_wait_ms", s.mean("xt_explorer_wait_ms"));

  put(result, "algo.train_ms", s.mean("xt_learner_train_ms"));
  const char* learner_role = "role=\"learner\"";
  const double gemm_ms = s.sum("xt_gemm_ms", learner_role);
  const auto flops = static_cast<double>(s.total("xt_gemm_flops_total", learner_role));
  put(result, "nn.learner_gflops", share(flops, gemm_ms * 1e6));
  put(result, "nn.learner_gemm_share", share(gemm_ms, train_ms));

  put(result, "serial.serialize_ms", s.mean("xt_send_serialize_ms"));

  put(result, "compress.compress_ms", s.mean("xt_codec_compress_ms"));
  put(result, "compress.decompress_ms", s.mean("xt_codec_decompress_ms"));
  const auto bytes_in = static_cast<double>(s.total("xt_codec_bytes_in_total"));
  const auto bytes_out = static_cast<double>(s.total("xt_codec_bytes_out_total"));
  put(result, "compress.saved_share",
      bytes_in > 0.0 ? 1.0 - bytes_out / bytes_in : 0.0);
  put(result, "compress.weights_encode_ms", s.mean("xt_weights_encode_ms"));
  put(result, "compress.weights_decode_ms", s.mean("xt_weights_decode_ms"));
  put(result, "compress.weights_wire_ratio",
      share(static_cast<double>(s.total("xt_weights_bytes_total")),
            static_cast<double>(s.total("xt_weights_raw_bytes_total"))));

  put(result, "comm.store_put_ms", s.mean("xt_store_put_ms"));
  put(result, "comm.route_ms", s.mean("xt_broker_route_ms"));
  put(result, "comm.queue_wait_ms", s.mean("xt_queue_wait_ms"));
  put(result, "comm.recv_decode_ms", s.mean("xt_recv_decode_ms"));
  put(result, "comm.messages", static_cast<double>(s.total("xt_messages_sent_total")));
  put(result, "comm.dropped",
      static_cast<double>(s.total("xt_broker_dropped_total", {}, "reason=")));
  put(result, "comm.shed", static_cast<double>(s.total("xt_messages_shed_total") +
                                               s.total("xt_frames_shed_total")));

  put(result, "netsim.transmit_ms", s.mean("xt_pipe_transmit_ms"));
  put(result, "netsim.wire_bytes_per_step",
      share(static_cast<double>(s.total("xt_pipe_wire_bytes_total")),
            static_cast<double>(tl.steps)));
  // Busiest link: its wire bytes over what the link could carry in the run.
  const double capacity_bytes =
      deploy.link.bandwidth_bytes_per_sec * ns_to_s(tl.deadline_ns - tl.start_ns);
  double utilization = 0.0;
  for (const auto& [name, value] : s.counters) {
    if (!in_family(name, "xt_pipe_wire_bytes_total")) continue;
    utilization =
        std::max(utilization, share(static_cast<double>(value), capacity_bytes));
  }
  put(result, "netsim.link_utilization", utilization);
  put(result, "netsim.frames", static_cast<double>(s.total("xt_pipe_frames_total")));
  put(result, "netsim.retransmits",
      static_cast<double>(s.total("xt_retransmits_total")));

  put(result, "replay.sample_ms", traced.report.mean_replay_sample_ms);

  // The analyzer's stages, by its names, and the remainder it leaves
  // unattributed; together they must account for the whole lifecycle.
  const CriticalPathReport& cp = traced.report.critical_path;
  double named_sum_ms = stage_mean_ms(cp, "unattributed");
  for (const auto& [stage, name] : kPathStages) {
    const double mean_ms = stage_mean_ms(cp, stage);
    named_sum_ms += mean_ms;
    put(result, name, mean_ms);
  }
  put(result, "path.unattributed_share",
      cp.messages > 0 ? 1.0 - cp.attributed_fraction : 0.0);
  put(result, "path.e2e_ms", cp.mean_end_to_end_ms);
  const double error =
      cp.mean_end_to_end_ms > 0.0
          ? std::abs(named_sum_ms - cp.mean_end_to_end_ms) / cp.mean_end_to_end_ms
          : 1.0;
  result.checks.push_back(
      {"traced.critical_path_sum", cp.messages > 0 && error <= 0.05,
       format("named stages sum to path.e2e_ms within %.2f%% over %.0f message(s)",
              error * 100.0, static_cast<double>(cp.messages))});

  put(result, "obs.tracing_overhead",
      untraced_steps_per_s > 0.0
          ? 1.0 - traced.rate.steps_per_s / untraced_steps_per_s
          : 0.0);
  double busiest = 0.0;
  for (const ThreadProfile& thread : traced.report.thread_profiles) {
    busiest = std::max(busiest, thread.busy_pct);
  }
  put(result, "obs.busiest_thread_pct", busiest);
}

}  // namespace

const std::vector<MetricSpec>& metric_specs() {
  constexpr Section kE2e = Section::kEndToEnd;
  constexpr Section kLayer = Section::kPerLayer;
  static const std::vector<MetricSpec> kSpecs = {
      {"steps_per_s", "steps/s", kE2e, true},
      {"setup_s", "s", kE2e, true},
      {"rollout_latency_p50_ms", "ms", kE2e, true},
      {"rollout_latency_tail_ms", "ms", kE2e, true},
      {"peak_rss_mb", "MB", kE2e, true},
      {"comm_bytes_per_step", "B/step", kE2e, true},
      {"rollout_latency_samples", "count", kE2e, false},
      {"episode_return", "return", kE2e, false},

      {"framework.learner_wait_share", "fraction", kLayer, true},
      {"framework.explorer_batch_ms", "ms", kLayer, true},
      {"framework.weights_publish_to_apply_ms", "ms", kLayer, true},
      {"framework.explorer_weights_wait_ms", "ms", kLayer, false},
      {"algo.train_ms", "ms", kLayer, true},
      {"nn.learner_gflops", "GFLOP/s", kLayer, true},
      {"nn.learner_gemm_share", "fraction", kLayer, true},
      {"serial.serialize_ms", "ms", kLayer, true},
      {"compress.compress_ms", "ms", kLayer, false},
      {"compress.decompress_ms", "ms", kLayer, false},
      {"compress.saved_share", "fraction", kLayer, false},
      {"compress.weights_encode_ms", "ms", kLayer, true},
      {"compress.weights_decode_ms", "ms", kLayer, true},
      {"compress.weights_wire_ratio", "ratio", kLayer, false},
      {"comm.store_put_ms", "ms", kLayer, true},
      {"comm.route_ms", "ms", kLayer, true},
      {"comm.queue_wait_ms", "ms", kLayer, true},
      {"comm.recv_decode_ms", "ms", kLayer, true},
      {"comm.messages", "count", kLayer, true},
      {"comm.dropped", "count", kLayer, false},
      {"comm.shed", "count", kLayer, false},
      {"netsim.transmit_ms", "ms", kLayer, false},
      {"netsim.wire_bytes_per_step", "B/step", kLayer, false},
      {"netsim.link_utilization", "fraction", kLayer, false},
      {"netsim.frames", "count", kLayer, false},
      {"netsim.retransmits", "count", kLayer, false},
      {"replay.sample_ms", "ms", kLayer, false},
      {"path.serialize_ms", "ms", kLayer, true},
      {"path.compress_ms", "ms", kLayer, true},
      {"path.store_put_ms", "ms", kLayer, true},
      {"path.route_ms", "ms", kLayer, true},
      {"path.pipe_transmit_ms", "ms", kLayer, false},
      {"path.rehost_ms", "ms", kLayer, false},
      {"path.queue_wait_ms", "ms", kLayer, true},
      {"path.recv_ms", "ms", kLayer, true},
      {"path.unattributed_share", "fraction", kLayer, true},
      {"path.e2e_ms", "ms", kLayer, true},
      {"obs.tracing_overhead", "fraction", kLayer, true},
      {"obs.busiest_thread_pct", "%", kLayer, false},
      {"probe.env_step_us", "us", kLayer, true},
      {"probe.infer_us", "us", kLayer, true},
      {"probe.serialize_ms", "ms", kLayer, true},
      {"probe.deserialize_ms", "ms", kLayer, true},
      {"probe.compress_ms", "ms", kLayer, true},
      {"probe.decompress_ms", "ms", kLayer, true},
      {"probe.store_put_fetch_us", "us", kLayer, true},
      {"probe.train_ms", "ms", kLayer, true},
      {"probe.weights_encode_ms", "ms", kLayer, true},
      {"probe.weights_decode_ms", "ms", kLayer, true},
  };
  return kSpecs;
}

const MetricSpec* find_metric_spec(std::string_view name) {
  for (const MetricSpec& spec : metric_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles' default 'exclusive' method, integer math included.
  const auto quartile = [&values, n](long i) {
    const long m = static_cast<long>(n) + 1;
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

bool RunResult::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& check) { return check.ok; });
}

const Metric* RunResult::find(std::string_view name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

int SpanLog::open(std::string name, int parent) {
  const std::int64_t now = now_ns();
  return add(std::move(name), now, now, parent);
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

int SpanLog::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const char* parent =
        span.parent >= 0 ? spans_[static_cast<std::size_t>(span.parent)].name.c_str()
                         : "";
    // Span names are the benchmark's own identifiers: no characters to escape.
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":0,"
                 "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":\"%s\",\"parent_id\":%d}}",
                 i == 0 ? "" : ",", span.name.c_str(),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, parent,
                 span.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

RunResult run_workload(const Workload& workload, const RunOptions& options,
                       SpanLog& spans) {
  register_benchmark_envs();
  RunResult result;
  result.workload = workload.name;
  result.seed = options.seed;
  result.traced = options.traced;

  const AlgoSetup algo = make_algo_setup(workload, options.seed);
  const DeploymentConfig deploy = make_deployment(workload, options.seconds);

  const Measured untraced =
      measured_run(workload, algo, deploy, options.seconds, spans, "bench.run");
  // Read before the extra constructions below: their teardowns leave heap
  // behind that the workload itself never holds at once.
  const double rss_mb = peak_rss_mb();
  const Timeline& tl = untraced.timeline;
  std::vector<double> setups = {
      tl.first_step_ns != 0 ? ns_to_s(tl.first_step_ns - tl.start_ns) : -1.0};
  if (!options.traced) {
    for (int i = 1; i < workload.setups; ++i) {
      setups.push_back(setup_only(algo, deploy, spans));
    }
  }
  const bool setups_ok = std::none_of(setups.begin(), setups.end(),
                                      [](double s) { return s < 0.0; });
  result.checks.push_back({"setup", setups_ok,
                           std::to_string(setups.size()) + " construction(s)"});
  add_checks(workload, deploy, untraced, "", result);
  add_end_to_end(untraced, summarize(setups).median, rss_mb, result);

  if (!options.traced) {
    count_window(untraced, result);
    return result;
  }

  DeploymentConfig traced_deploy = deploy;
  traced_deploy.obs.tracing = true;
  traced_deploy.obs.trace_capacity = kTraceCapacity;
  traced_deploy.profile.enabled = true;
  const Measured traced = measured_run(workload, algo, traced_deploy, options.seconds,
                                       spans, "bench.run.traced");
  add_checks(workload, traced_deploy, traced, "traced.", result);
  count_window(traced, result);
  add_per_layer(traced_deploy, traced, untraced.rate.steps_per_s, result);

  SpanScope probes(spans, "bench.probes");
  for (Metric& metric : run_probes(workload, options.seed,
                                   std::min(0.25, 0.02 * options.seconds), spans,
                                   probes.index())) {
    result.metrics.push_back(std::move(metric));
  }
  return result;
}

}  // namespace xt::e2e
