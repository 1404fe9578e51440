#include "obs/metrics.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace xt {
namespace {

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

const MetricsRegistry::Series& MetricsRegistry::add(
    const MetricRow& row, MetricKind kind, std::initializer_list<LabelValue> values) {
  if (row.kind != kind || values.size() != row.labels.size()) {
    throw std::invalid_argument(std::string(row.name) + ": values do not fit the row");
  }
  std::pair<std::string_view, std::string> key{row.name, row.name};
  const char* const* label = row.labels.begin();
  for (const LabelValue& value : values) {
    key.second += label == row.labels.begin() ? '{' : ',';
    key.second += *label++;
    key.second += "=\"" + value.text + '"';
  }
  if (values.size() > 0) key.second += '}';

  std::scoped_lock lock(mu_);
  const auto it = series_.lower_bound(key);
  if (it != series_.end() && it->first == key) return it->second;
  // A family's series are adjacent and share its row: a neighbour shows it.
  const auto held = [&](auto n) {
    return n->first.first == row.name && n->second.row != &row;
  };
  if ((it != series_.end() && held(it)) ||
      (it != series_.begin() && held(std::prev(it)))) {
    throw std::invalid_argument(std::string(row.name) + ": another row holds the name");
  }
  Series series{&row, {}, {}, nullptr, nullptr, nullptr};
  for (const LabelValue& value : values) series.values.push_back(value.text);
  if (kind == MetricKind::kCounter) series.counter = std::make_unique<Counter>();
  if (kind == MetricKind::kGauge) series.gauge = std::make_unique<Gauge>();
  if (kind == MetricKind::kHistogram) series.histogram = std::make_unique<Histogram>();
  const auto added = series_.emplace_hint(it, std::move(key), std::move(series));
  added->second.name = added->first.second;
  return added->second;
}

Counter& MetricsRegistry::counter(const MetricRow& row,
                                  std::initializer_list<LabelValue> values) {
  return *add(row, MetricKind::kCounter, values).counter;
}

Gauge& MetricsRegistry::gauge(const MetricRow& row,
                              std::initializer_list<LabelValue> values) {
  return *add(row, MetricKind::kGauge, values).gauge;
}

Histogram& MetricsRegistry::histogram(const MetricRow& row,
                                      std::initializer_list<LabelValue> values) {
  return *add(row, MetricKind::kHistogram, values).histogram;
}

std::vector<const MetricsRegistry::Series*> MetricsRegistry::series(
    const MetricRow* family) const {
  std::vector<const Series*> out;
  std::scoped_lock lock(mu_);
  auto it = family ? series_.lower_bound({family->name, ""}) : series_.begin();
  for (; it != series_.end() && (!family || it->first.first == family->name); ++it) {
    out.push_back(&it->second);
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const Series* s : series()) {
    if (s->counter) out.emplace_back(s->name, s->counter->value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> MetricsRegistry::histograms()
    const {
  std::vector<std::pair<std::string, const Histogram*>> out;
  for (const Series* s : series()) {
    if (s->histogram) out.emplace_back(s->name, s->histogram.get());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t MetricsRegistry::total(const MetricRow& family) const {
  std::uint64_t total = 0;
  for (const Series* s : series(&family)) {
    if (s->counter) total += s->counter->value();
  }
  return total;
}

double MetricsRegistry::mean(const MetricRow& family) const {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const Series* s : series(&family)) {
    if (!s->histogram) continue;
    sum += s->histogram->sum();
    count += s->histogram->count();
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double MetricsRegistry::quantile(const MetricRow& family, double q) const {
  std::vector<std::uint64_t> counts(Histogram::kBuckets + 1);
  for (const Series* s : series(&family)) {
    if (!s->histogram) continue;
    const std::vector<std::uint64_t> member = s->histogram->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += member[i];
  }
  return bucket_quantile(counts, q);
}

}  // namespace xt
