#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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

/// What a family records; the exporter writes it as the family's `# TYPE`.
enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* metric_kind_name(MetricKind kind) {
  constexpr const char* kNames[] = {"counter", "gauge", "histogram"};
  return kNames[static_cast<std::size_t>(kind)];
}

/// One metric family: its name, its kind and its label keys in series order.
/// The catalog (obs/catalog.h) holds a row for every family the program
/// records; a test may define its own. A row is a named variable that
/// outlives its registries, which point to it and its keys; strings are literals.
struct MetricRow {
  const char* name;
  MetricKind kind;
  std::initializer_list<const char*> labels = {};
};

/// One label value of a series, given in its row's key order. An integral
/// value (a machine index) is written in decimal.
struct LabelValue {
  template <typename T>
    requires std::convertible_to<const T&, std::string_view>
  LabelValue(const T& v) : text(std::string_view(v)) {}
  template <std::integral T>
  LabelValue(T v) : text(std::to_string(v)) {}

  std::string text;
};

/// Family -> series registry. A series is registered and found through its
/// family's row plus one value per label key; its name, `family{key="value",
/// ...}` with the values verbatim, is rendered once. Lookup takes the mutex;
/// the returned reference lives as long as the registry, so callers resolve
/// handles once and record lock-free afterwards. The family readers `total`,
/// `mean` and `quantile` visit that family's series alone and read 0 for a
/// family nothing has registered, without registering it.
class MetricsRegistry {
 public:
  /// One registered series; the one metric its row's kind names is set.
  struct Series {
    const MetricRow* row;
    std::vector<std::string> values;  ///< in the row's key order
    std::string_view name;            ///< views the registry's key
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The series of `row` with `values`. Throws std::invalid_argument when
  /// they do not match the row's kind and keys, or another row holds its name.
  [[nodiscard]] Counter& counter(const MetricRow& row,
                                 std::initializer_list<LabelValue> values = {});
  [[nodiscard]] Gauge& gauge(const MetricRow& row,
                             std::initializer_list<LabelValue> values = {});
  [[nodiscard]] Histogram& histogram(const MetricRow& row,
                                     std::initializer_list<LabelValue> values = {});

  /// Snapshots by series name, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, const Histogram*>> histograms() const;

  /// The series of `family`, or every series: families in name order, each
  /// family's series in name order. The pointers live as long as the registry.
  [[nodiscard]] std::vector<const Series*> series(
      const MetricRow* family = nullptr) const;

  /// Sum of the family's counters.
  [[nodiscard]] std::uint64_t total(const MetricRow& family) const;
  /// Mean over the family's histograms: sum of sums over sum of counts.
  [[nodiscard]] double mean(const MetricRow& family) const;
  /// Quantile of the family's histograms merged bucket by bucket, by
  /// Histogram::quantile's rule: a family of one reads that histogram's.
  [[nodiscard]] double quantile(const MetricRow& family, double q) const;

 private:
  const Series& add(const MetricRow& row, MetricKind kind,
                    std::initializer_list<LabelValue> values);

  mutable std::mutex mu_;
  /// Keyed by (family, series name), so a family's series are adjacent.
  std::map<std::pair<std::string_view, std::string>, Series> series_;
};

}  // namespace xt
