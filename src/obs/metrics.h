#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace xt {

/// Monotonic counter. Handles returned by MetricsRegistry are stable for the
/// registry's lifetime, so hot paths hold a `Counter&` and pay one relaxed
/// atomic add per event.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, resident bytes).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Exponential-bucket histogram with one layout for every series: finite
/// upper bounds `0.001 * 2^i` for i < kBuckets (1 us to ~134 s when observing
/// ms) plus a +inf overflow bucket. observe() is two relaxed atomic adds plus
/// a short bound scan, safe from any thread. Quantiles are estimated by
/// linear interpolation within the containing bucket — good enough for the
/// paper's latency breakdowns, and bounded memory unlike a sample log.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 28;

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const;
  /// q in [0,1]; bucket-interpolated estimate, 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  /// Finite bucket upper bounds (ascending).
  [[nodiscard]] static const std::array<double, kBuckets>& bounds();
  /// Per-bucket counts; has kBuckets + 1 entries, last is +inf.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets + 1> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One `key="value"` label of a series name. An integral value (a machine
/// index) is written in decimal.
struct MetricLabel {
  MetricLabel(std::string_view k, std::string_view v) : key(k), value(v) {}
  MetricLabel(std::string_view k, std::uint64_t v)
      : key(k), value(std::to_string(v)) {}
  std::string_view key;
  std::string value;
};

/// The registry's name of one labeled series: `family{key="value",...}`, or
/// the bare family without labels. Values go in verbatim; the text exporter
/// escapes them.
[[nodiscard]] std::string series_name(std::string_view family,
                                      std::initializer_list<MetricLabel> labels);

/// Lock-sharded name -> metric registry. Lookup (`counter()` / `gauge()` /
/// `histogram()`) hashes the name to a shard and takes that shard's mutex
/// only for the map access; the returned reference stays valid for the
/// registry's lifetime, so callers resolve handles once and record lock-free
/// afterwards.
///
/// Naming convention: Prometheus-style full names including labels, e.g.
/// `xt_broker_routed_total{machine="0"}`. The text exporter groups families
/// by the name before the label block. The `family_*` readers aggregate every
/// series of a family (`family` itself and each `family{labels}`) and read 0
/// for a family nothing has registered, without registering it.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Snapshots for exporters, sorted by name for deterministic output.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  /// Sum of the family's counters (e.g. every link's
  /// `xt_faults_injected_total{link="...",kind="..."}`).
  [[nodiscard]] std::uint64_t family_total(std::string_view family) const;
  /// Mean over the family's histograms: sum of sums over sum of counts.
  [[nodiscard]] double family_mean(std::string_view family) const;
  /// Quantile of the family's histograms merged bucket by bucket, by
  /// Histogram::quantile's rule: a family of one reads that histogram's.
  [[nodiscard]] double family_quantile(std::string_view family, double q) const;

 private:
  static constexpr std::size_t kShards = 8;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
    std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
    std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  [[nodiscard]] Shard& shard_for(const std::string& name);

  Shard shards_[kShards];
};

}  // namespace xt
