#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "workloads.h"

namespace xt::e2e {

enum class Section { kEndToEnd, kPerLayer };

/// A metric xt_bench emits. `contract` marks the ones BENCHMARK.json lists
/// (and the result line prints); the others go to the JSON artifact only:
/// informational end-to-end values, and per-layer values that are zero or
/// fixed by construction on some workload (a layer that workload bypasses,
/// a count that is zero in a healthy run).
struct MetricSpec {
  const char* name;
  const char* unit;
  Section section;
  bool contract;
};

[[nodiscard]] const std::vector<MetricSpec>& metric_specs();
/// nullptr for an unknown name.
[[nodiscard]] const MetricSpec* find_metric_spec(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
};

/// Median and quartiles of a set of values, the quartiles as Python's
/// statistics.quantiles(values, n=4) gives them.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] Summary summarize(std::vector<double> values);

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one run of one workload produced.
struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  /// Messages sent / lost (drops, sheds, decode failures) inside the
  /// measurement window, so start-up and teardown races are not counted.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< both sections, in emission order
  std::vector<Check> checks;

  [[nodiscard]] bool correct() const;
  /// nullptr when the run did not emit `name`.
  [[nodiscard]] const Metric* find(std::string_view name) const;
};

/// The benchmark's own spans (bench.setup, bench.run, probe.*): name,
/// start, end and parent, kept in memory and written as Chrome-trace JSON.
class SpanLog {
 public:
  /// Opens a span; `parent` is the index of the enclosing span or -1.
  int open(std::string name, int parent = -1);
  void close(int index);
  /// Records a span whose bounds were measured elsewhere (steady-clock ns).
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns, int parent);
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  std::vector<Span> spans_;
};

/// Closes the span it opened when it leaves scope.
class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string name, int parent = -1)
      : log_(log), index_(log.open(std::move(name), parent)) {}
  ~SpanScope() { log_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 15.0;
  /// Also run traced, then the probes, and emit the per-layer metrics.
  bool traced = false;
};

/// Runs one workload from outside the runtime. Untraced: `setups`
/// constructions for setup_s, then the measured run. Traced: an untraced
/// reference run, a traced run and the probes.
[[nodiscard]] RunResult run_workload(const Workload& workload,
                                     const RunOptions& options, SpanLog& spans);

/// Isolated calls into public functions on the workload's own inputs; each
/// value is the median of repeated calls. `budget_s` caps the time spent
/// per probe beyond its minimum repetitions.
[[nodiscard]] std::vector<Metric> run_probes(const Workload& workload,
                                             std::uint64_t seed, double budget_s,
                                             SpanLog& spans, int parent);

}  // namespace xt::e2e
