#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace xt {

/// Sample reservoir that can report quantiles and a CDF table. Used for the
/// wait-time CDF of paper Fig. 8(c).
///
/// Below `capacity` samples every observation is kept and quantiles are
/// exact. Above it, classic reservoir sampling (Vitter's algorithm R, driven
/// by a deterministic PRNG so reruns reproduce) keeps a uniform sample of
/// everything seen so far — memory stays bounded on arbitrarily long runs.
/// count() and mean() remain exact over all observations regardless.
class LatencyRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit LatencyRecorder(std::size_t capacity = kDefaultCapacity);

  void add(double value);

  /// Total observations (exact, not capped by the reservoir).
  [[nodiscard]] std::size_t count() const;
  /// Exact mean over all observations.
  [[nodiscard]] double mean() const;
  /// Samples currently held (== count() until the capacity is reached).
  [[nodiscard]] std::size_t reservoir_size() const;
  /// q in [0,1]; returns 0 when empty. Exact below capacity, a uniform
  /// reservoir estimate above.
  [[nodiscard]] double quantile(double q) const;
  /// (value, cumulative fraction) pairs at `points` evenly spaced quantiles.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(std::size_t points) const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  mutable std::vector<double> samples_;
  std::size_t n_ = 0;        ///< total observations
  double sum_ = 0.0;         ///< exact sum over all observations
  std::uint64_t rng_state_;  ///< splitmix64, fixed seed => deterministic
  mutable bool sorted_ = true;
  void ensure_sorted_locked() const;
};

/// Throughput-over-time series: add(t_seconds, amount) buckets amounts into
/// fixed windows; series() reports per-window rates (paper Figs. 8-10(a)).
class ThroughputSeries {
 public:
  explicit ThroughputSeries(double window_seconds = 1.0);

  void add(double t_seconds, double amount);

  struct Point {
    double t;     ///< window start time (seconds)
    double rate;  ///< amount per second within the window
  };
  [[nodiscard]] std::vector<Point> series() const;

 private:
  mutable std::mutex mu_;
  double window_;
  std::vector<double> buckets_;
};

/// Render helpers for benchmark output tables.
std::string format_bytes(double bytes);
std::string format_si(double value);

}  // namespace xt
