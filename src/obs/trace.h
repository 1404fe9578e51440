#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace xt {

/// One completed span of a message's lifecycle (or of a workhorse phase).
/// `name` and `category` must be string literals (spans are stored by
/// pointer in a fixed ring buffer; no per-span allocation).
struct TraceSpan {
  const char* name = "";
  const char* category = "";
  std::uint64_t trace_id = 0;  ///< message id stitching hops together (0 = none)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t pid = 0;       ///< logical process group (simulated machine)
  std::uint64_t tid = 0;       ///< recording thread (see trace_thread_id())
  std::uint64_t bytes = 0;     ///< payload size where meaningful
};

/// Stable per-thread key for span tracks.
[[nodiscard]] std::uint64_t trace_thread_id();

/// Ring-buffered collector for message-lifecycle spans.
///
/// Disabled (the default) it records nothing: the hot-path guard is a single
/// relaxed atomic load, callers skip their clock reads entirely. Enabled, a
/// record is one mutex-protected slot write into a preallocated ring — old
/// spans are overwritten once `capacity` is exceeded, so memory stays
/// bounded on arbitrarily long runs.
class TraceCollector {
 public:
  explicit TraceCollector(std::size_t capacity = kDefaultCapacity);

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record a completed span; no-op when disabled. Also captures the calling
  /// thread's name (from set_current_thread_name) the first time each thread
  /// records, for the exporter's per-thread tracks.
  void record(const TraceSpan& span);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Spans currently held (<= capacity()).
  [[nodiscard]] std::size_t size() const;
  /// Spans ever recorded, including those the ring has overwritten.
  [[nodiscard]] std::uint64_t total_recorded() const;

  /// Copy of the held spans in recording order (oldest first).
  [[nodiscard]] std::vector<TraceSpan> snapshot() const;
  /// (tid, thread name) pairs seen so far.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>> thread_names() const;

  void clear();

 private:
  std::atomic<bool> enabled_{false};
  const std::size_t capacity_;

  mutable std::mutex mu_;
  std::vector<TraceSpan> ring_;
  std::size_t next_ = 0;        ///< ring_[next_ % capacity_] is written next
  std::uint64_t recorded_ = 0;  ///< total record() calls while enabled
  std::vector<std::pair<std::uint64_t, std::string>> threads_;
};

// ---------------------------------------------------------------------------
// The stage table: every timed stage of a message's life (category "comm",
// in the order a message meets them) and of the workhorse loops ("app").
// Each row is the one place the stage's names are spelled; `Stage` reads
// them, and the critical-path analyzer maps span names back to rows.

enum class StageId : std::uint8_t {
  kSerialize,
  kCompress,
  kStorePut,
  kRoute,
  kPipeTransmit,
  kRehost,
  kQueueWait,
  kRecv,
  kExplorerRollout,
  kExplorerWaitWeights,
  kLearnerWait,
  kLearnerTrain,
};

struct StageRow {
  StageId id;
  const char* span;            ///< trace span name
  const char* category;        ///< span category: "comm" or "app"
  const char* prof_label;      ///< profiler scope label; nullptr for a stage
                               ///< whose start is stamped elsewhere
  bool idle;                   ///< the scope is waiting, not busy, time
  const char* path_key;        ///< critical-path key; nullptr for "app" rows
  bool sender;                 ///< a sending hop: with a recv, a whole lifecycle
  const MetricRow* histogram;  ///< catalog row of its histogram; nullptr when none
};

inline constexpr StageRow kStages[] = {
    {StageId::kSerialize, "msg.serialize", "comm", "serialize", false, "serialize",
     true, &metric::xt_send_serialize_ms},
    {StageId::kCompress, "msg.compress", "comm", "compress", false, "compress", true,
     &metric::xt_codec_compress_ms},
    {StageId::kStorePut, "store.put", "comm", "store.put", false, "store.put", true,
     &metric::xt_store_put_ms},
    {StageId::kRoute, "router.route", "comm", "route", false, "route", false,
     &metric::xt_broker_route_ms},
    {StageId::kPipeTransmit, "pipe.transmit", "comm", nullptr, false, "pipe.transmit",
     false, &metric::xt_pipe_transmit_ms},
    {StageId::kRehost, "broker.rehost", "comm", "rehost", false, "rehost", false,
     nullptr},
    {StageId::kQueueWait, "queue.wait", "comm", nullptr, false, "queue.wait", false,
     &metric::xt_queue_wait_ms},
    {StageId::kRecv, "msg.recv", "comm", "recv", false, "recv", false,
     &metric::xt_recv_decode_ms},
    {StageId::kExplorerRollout, "explorer.rollout", "app", nullptr, false, nullptr,
     false, &metric::xt_explorer_rollout_ms},
    {StageId::kExplorerWaitWeights, "explorer.wait_weights", "app", "wait_weights",
     true, nullptr, false, &metric::xt_explorer_wait_ms},
    {StageId::kLearnerWait, "learner.wait", "app", "wait_data", true, nullptr, false,
     &metric::xt_learner_wait_ms},
    {StageId::kLearnerTrain, "learner.train", "app", "train", false, nullptr, false,
     &metric::xt_learner_train_ms},
};

[[nodiscard]] constexpr const StageRow& stage_row(StageId id) {
  return kStages[static_cast<std::size_t>(id)];
}

/// The row whose span is `span_name`, or nullptr.
[[nodiscard]] const StageRow* find_stage(std::string_view span_name);

/// The owner's series of a stage's histogram family, e.g.
/// `xt_store_put_ms{machine="1"}`. The stage must have a family.
[[nodiscard]] Histogram& stage_histogram(MetricsRegistry& metrics, StageId id,
                                         std::initializer_list<LabelValue> values);

/// Times one stage once. From that one interval it observes `histogram` (in
/// ms) and, while `trace` is enabled, records the row's span; for its whole
/// life it holds the row's profiler label. Either record may be nullptr. A
/// stage with neither reads no clock. finish() or the destructor ends it.
class Stage {
 public:
  Stage(StageId id, Histogram* histogram, TraceCollector* trace, std::uint64_t trace_id,
        std::uint32_t pid, std::uint64_t bytes = 0)
      : Stage(id, histogram, trace, trace_id, pid, bytes, kNow) {}

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  ~Stage() { finish(); }

  /// The backdated form, for a stage whose start `start_ns` was stamped
  /// elsewhere (a queue push, another thread): it ends now.
  static void since(std::int64_t start_ns, StageId id, Histogram* histogram,
                    TraceCollector* trace, std::uint64_t trace_id, std::uint32_t pid,
                    std::uint64_t bytes = 0) {
    Stage(id, histogram, trace, trace_id, pid, bytes, start_ns).finish();
  }

  void set_bytes(std::uint64_t bytes) { bytes_ = bytes; }

  /// Ends the stage and records it once; returns its length in ms (0 when
  /// untimed or already ended).
  double finish();

  /// Ends the stage without recording it (a wait cut short by a stop).
  void cancel() {
    timed_ = false;
    prof_.reset();
  }

 private:
  static constexpr std::int64_t kNow = -1;

  Stage(StageId id, Histogram* histogram, TraceCollector* trace, std::uint64_t trace_id,
        std::uint32_t pid, std::uint64_t bytes, std::int64_t start_ns)
      : row_(&stage_row(id)),
        histogram_(histogram),
        trace_(trace != nullptr && trace->enabled() ? trace : nullptr),
        trace_id_(trace_id),
        pid_(pid),
        bytes_(bytes),
        timed_(histogram_ != nullptr || trace_ != nullptr),
        start_ns_(start_ns) {
    if (start_ns_ != kNow) return;
    if (row_->prof_label != nullptr) prof_.emplace(row_->prof_label, row_->idle);
    if (timed_) start_ns_ = now_ns();
  }

  const StageRow* row_;
  Histogram* histogram_;
  TraceCollector* trace_;
  std::uint64_t trace_id_;
  std::uint32_t pid_;
  std::uint64_t bytes_;
  bool timed_;
  std::int64_t start_ns_;
  std::optional<ProfScope> prof_;
};

}  // namespace xt
