#include "obs/trace.h"

#include <algorithm>
#include <iterator>

#include "common/thread_util.h"

namespace xt {
namespace {

constexpr bool rows_follow_stage_ids() {
  for (std::size_t i = 0; i < std::size(kStages); ++i) {
    if (static_cast<std::size_t>(kStages[i].id) != i) return false;
  }
  return true;
}
static_assert(rows_follow_stage_ids(), "stage_row() indexes kStages by StageId");

}  // namespace

std::uint64_t trace_thread_id() {
  static std::atomic<std::uint64_t> next{1};
  thread_local std::uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceCollector::TraceCollector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceCollector::record(const TraceSpan& span) {
  if (!enabled()) return;
  const std::uint64_t tid = span.tid != 0 ? span.tid : trace_thread_id();
  std::scoped_lock lock(mu_);
  if (ring_.empty()) ring_.reserve(capacity_);
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
    ring_.back().tid = tid;
  } else {
    ring_[next_ % capacity_] = span;
    ring_[next_ % capacity_].tid = tid;
  }
  ++next_;
  ++recorded_;
  const auto known =
      std::find_if(threads_.begin(), threads_.end(),
                   [tid](const auto& entry) { return entry.first == tid; });
  if (known == threads_.end()) {
    threads_.emplace_back(tid, current_thread_name());
  }
}

std::size_t TraceCollector::size() const {
  std::scoped_lock lock(mu_);
  return ring_.size();
}

std::uint64_t TraceCollector::total_recorded() const {
  std::scoped_lock lock(mu_);
  return recorded_;
}

std::vector<TraceSpan> TraceCollector::snapshot() const {
  std::scoped_lock lock(mu_);
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Ring full: oldest span is at next_ % capacity_.
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::string>> TraceCollector::thread_names()
    const {
  std::scoped_lock lock(mu_);
  return threads_;
}

const StageRow* find_stage(std::string_view span_name) {
  for (const StageRow& row : kStages) {
    if (span_name == row.span) return &row;
  }
  return nullptr;
}

Histogram& stage_histogram(MetricsRegistry& metrics, StageId id,
                           std::initializer_list<LabelValue> values) {
  return metrics.histogram(*stage_row(id).histogram, values);
}

double Stage::finish() {
  const std::int64_t end_ns = timed_ ? now_ns() : 0;
  prof_.reset();
  if (!timed_) return 0.0;
  timed_ = false;
  const double ms = ns_to_ms(end_ns - start_ns_);
  if (histogram_ != nullptr) histogram_->observe(ms);
  if (trace_ != nullptr) {
    TraceSpan span;
    span.name = row_->span;
    span.category = row_->category;
    span.trace_id = trace_id_;
    span.start_ns = start_ns_;
    span.dur_ns = end_ns - start_ns_;
    span.pid = pid_;
    span.bytes = bytes_;
    trace_->record(span);
  }
  return ms;
}

void TraceCollector::clear() {
  std::scoped_lock lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  threads_.clear();
}

}  // namespace xt
