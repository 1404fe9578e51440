#include "obs/metrics.h"

#include <algorithm>
#include <functional>

namespace xt {
namespace {

bool in_family(const std::string& name, std::string_view family) {
  return name.compare(0, family.size(), family) == 0 &&
         (name.size() == family.size() || name[family.size()] == '{');
}

/// Histogram::quantile's rule over counts laid out like Histogram::bounds():
/// linear interpolation within the bucket holding the q-th observation; the
/// lower edge for an empty bucket or the +inf bucket; 0 when empty.
double bucket_quantile(const std::vector<std::uint64_t>& counts, double q) {
  const auto& bounds = Histogram::bounds();
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
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    if (i == bounds.size() || counts[i] == 0) return lo;
    const double frac =
        (target - static_cast<double>(cumulative)) / static_cast<double>(counts[i]);
    return lo + (bounds[i] - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds.back();
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

const std::array<double, Histogram::kBuckets>& Histogram::bounds() {
  static constexpr std::array<double, kBuckets> kBounds = [] {
    std::array<double, kBuckets> out{};
    double bound = 0.001;
    for (double& b : out) {
      b = bound;
      bound *= 2.0;
    }
    return out;
  }();
  return kBounds;
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds().begin(), bounds().end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds().begin());
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
  return bucket_quantile(bucket_counts(), q);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets + 1);
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

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Shard& shard = shard_for(name);
  std::scoped_lock lock(shard.mu);
  auto& slot = shard.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
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
  std::vector<std::uint64_t> counts(Histogram::kBuckets + 1);
  for (const auto& [name, hist] : histograms()) {
    if (!in_family(name, family)) continue;
    const std::vector<std::uint64_t> member = hist->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += member[i];
  }
  return bucket_quantile(counts, q);
}

}  // namespace xt
