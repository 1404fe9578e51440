#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace xt {
namespace {

bool in_family(const std::string& name, std::string_view family) {
  return name.compare(0, family.size(), family) == 0 &&
         (name.size() == family.size() || name[family.size()] == '{');
}

}  // namespace

std::string series_name(std::string_view family,
                        std::initializer_list<MetricLabel> labels) {
  std::string name(family);
  char sep = '{';
  for (const MetricLabel& label : labels) {
    name += sep;
    name += label.key;
    name += "=\"";
    name += label.value;
    name += '"';
    sep = ',';
  }
  if (labels.size() > 0) name += '}';
  return name;
}

void Gauge::add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(const Options& options) {
  assert(options.buckets >= 1);
  assert(options.first_bound > 0.0 && options.growth > 1.0);
  bounds_.reserve(options.buckets);
  double bound = options.first_bound;
  for (std::size_t i = 0; i < options.buckets; ++i) {
    bounds_.push_back(bound);
    bound *= options.growth;
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + v,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::quantile(double q) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (static_cast<double>(cumulative + counts[i]) < target) {
      cumulative += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    // The +inf bucket has no upper bound; report its lower edge.
    if (i == bounds_.size()) return lo;
    const double hi = bounds_[i];
    if (counts[i] == 0) return lo;
    const double frac =
        (target - static_cast<double>(cumulative)) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds_.back();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

MetricsRegistry::Shard& MetricsRegistry::shard_for(const std::string& name) {
  return shards_[std::hash<std::string>{}(name) % kShards];
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Shard& shard = shard_for(name);
  std::scoped_lock lock(shard.mu);
  auto& slot = shard.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Shard& shard = shard_for(name);
  std::scoped_lock lock(shard.mu);
  auto& slot = shard.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Histogram::Options& options) {
  Shard& shard = shard_for(name);
  std::scoped_lock lock(shard.mu);
  auto& slot = shard.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(options);
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    for (const auto& [name, counter] : shard.counters) {
      out.emplace_back(name, counter->value());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauges() const {
  std::vector<std::pair<std::string, double>> out;
  for (const Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    for (const auto& [name, gauge] : shard.gauges) {
      out.emplace_back(name, gauge->value());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> MetricsRegistry::histograms()
    const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  for (const Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    for (const auto& [name, histogram] : shard.histograms) {
      out.emplace_back(name, histogram.get());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t MetricsRegistry::family_total(std::string_view family) const {
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters()) {
    if (in_family(name, family)) total += value;
  }
  return total;
}

double MetricsRegistry::family_mean(std::string_view family) const {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& [name, hist] : histograms()) {
    if (!in_family(name, family)) continue;
    sum += hist->sum();
    count += hist->count();
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double MetricsRegistry::family_quantile(std::string_view family, double q) const {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  for (const auto& [name, hist] : histograms()) {
    if (!in_family(name, family)) continue;
    const auto bucket_counts = hist->bucket_counts();
    if (bounds.empty()) {
      bounds = hist->bounds();
      counts.assign(bucket_counts.size(), 0);
    }
    if (bucket_counts.size() != counts.size()) continue;
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += bucket_counts[i];
    total += hist->count();
  }
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) < target) {
      seen += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : lo * 2.0;
    const double within =
        (target - static_cast<double>(seen)) / static_cast<double>(counts[i]);
    return lo + within * (hi - lo);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace xt
