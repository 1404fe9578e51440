#include "common/stats.h"

#include <algorithm>
#include <cstdio>

namespace xt {

namespace {
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

LatencyRecorder::LatencyRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), rng_state_(0x5EEDC0DEull) {}

void LatencyRecorder::add(double value) {
  std::scoped_lock lock(mu_);
  ++n_;
  sum_ += value;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    sorted_ = false;
    return;
  }
  // Algorithm R: the i-th observation replaces a uniformly random reservoir
  // slot with probability capacity / i, keeping the sample uniform.
  const std::uint64_t j = splitmix64(rng_state_) % n_;
  if (j < capacity_) {
    samples_[j] = value;
    sorted_ = false;
  }
}

std::size_t LatencyRecorder::count() const {
  std::scoped_lock lock(mu_);
  return n_;
}

std::size_t LatencyRecorder::reservoir_size() const {
  std::scoped_lock lock(mu_);
  return samples_.size();
}

double LatencyRecorder::mean() const {
  std::scoped_lock lock(mu_);
  if (n_ == 0) return 0.0;
  return sum_ / static_cast<double>(n_);
}

void LatencyRecorder::ensure_sorted_locked() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyRecorder::quantile(double q) const {
  std::scoped_lock lock(mu_);
  if (samples_.empty()) return 0.0;
  ensure_sorted_locked();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::vector<std::pair<double, double>> LatencyRecorder::cdf(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (points == 0) return out;
  std::scoped_lock lock(mu_);
  if (samples_.empty()) return out;
  ensure_sorted_locked();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points - 1 ? points - 1 : 1);
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    out.emplace_back(samples_[idx], q);
  }
  return out;
}

ThroughputSeries::ThroughputSeries(double window_seconds) : window_(window_seconds) {}

void ThroughputSeries::add(double t_seconds, double amount) {
  std::scoped_lock lock(mu_);
  if (t_seconds < 0) t_seconds = 0;
  const auto idx = static_cast<std::size_t>(t_seconds / window_);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0.0);
  buckets_[idx] += amount;
}

std::vector<ThroughputSeries::Point> ThroughputSeries::series() const {
  std::scoped_lock lock(mu_);
  std::vector<Point> out;
  out.reserve(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out.push_back({static_cast<double>(i) * window_, buckets_[i] / window_});
  }
  return out;
}

std::string format_bytes(double bytes) {
  char buf[64];
  if (bytes >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", bytes / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

std::string format_si(double value) {
  char buf[64];
  if (value >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fG", value / 1e9);
  } else if (value >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", value / 1e6);
  } else if (value >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fk", value / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", value);
  }
  return buf;
}

}  // namespace xt
