#include "obs/critical_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string_view>

#include "obs/trace.h"
#include "perf_diff.h"  // tools JSON parser, reused to validate emitted JSON

namespace xt {
namespace {

constexpr std::int64_t kMs = 1'000'000;

TraceSpan make_span(const char* name, std::uint64_t trace_id,
                    std::int64_t start_ms, std::int64_t end_ms,
                    const char* category = "comm") {
  TraceSpan span;
  span.name = name;
  span.category = category;
  span.trace_id = trace_id;
  span.start_ns = start_ms * kMs;
  span.dur_ns = (end_ms - start_ms) * kMs;
  return span;
}

const StageBreakdown* find_stage(const CriticalPathReport& report,
                                 const std::string& stage) {
  for (const StageBreakdown& s : report.stages) {
    if (s.stage == stage) return &s;
  }
  return nullptr;
}

/// One full lifecycle with every pipeline stage, back to back (no overlap,
/// no gaps): serialize 10, compress 2, store.put 8, route 1, pipe.transmit
/// 29, rehost 2, queue.wait 8, recv 5 — 65 ms end to end.
std::vector<TraceSpan> full_lifecycle(std::uint64_t id,
                                      std::int64_t offset_ms = 0) {
  const auto at = [&](std::int64_t t) { return offset_ms + t; };
  return {
      make_span("msg.serialize", id, at(0), at(10)),
      make_span("msg.compress", id, at(10), at(12)),
      make_span("store.put", id, at(12), at(20)),
      make_span("router.route", id, at(20), at(21)),
      make_span("pipe.transmit", id, at(21), at(50)),
      make_span("broker.rehost", id, at(50), at(52)),
      make_span("queue.wait", id, at(52), at(60)),
      make_span("msg.recv", id, at(60), at(65)),
  };
}

TEST(CriticalPath, EveryKeyTheBenchmarkReadsHasAStageRow) {
  // bench/e2e/measure.cpp turns these keys into its path.* metrics; a row
  // renamed away would zero one of them instead of failing here.
  const char* const kBenchmarkKeys[] = {
      "serialize",     "compress", "store.put",  "route",
      "pipe.transmit", "rehost",   "queue.wait", "recv",
  };
  for (const char* key : kBenchmarkKeys) {
    const StageRow* found = nullptr;
    for (const StageRow& row : kStages) {
      if (row.path_key != nullptr && std::string_view(row.path_key) == key) {
        found = &row;
      }
    }
    ASSERT_NE(found, nullptr) << key;
    EXPECT_STREQ(found->category, "comm") << key;
    EXPECT_STREQ(stage_for_span(found->span), key) << key;
  }
  // A span the table does not know keeps its raw name.
  EXPECT_STREQ(stage_for_span("pipe.queue"), "pipe.queue");
}

TEST(CriticalPath, ExactBreakdownOfASyntheticLifecycle) {
  std::vector<TraceSpan> spans = full_lifecycle(7);
  // App spans sharing the trace id (explorer.rollout) must not leak into
  // the comm breakdown.
  spans.push_back(make_span("explorer.rollout", 7, -100, 0, "app"));

  const CriticalPathReport report = analyze_critical_path(spans);
  EXPECT_EQ(report.messages, 1u);
  EXPECT_EQ(report.incomplete, 0u);
  EXPECT_DOUBLE_EQ(report.total_end_to_end_ms, 65.0);
  EXPECT_DOUBLE_EQ(report.mean_end_to_end_ms, 65.0);
  EXPECT_DOUBLE_EQ(report.attributed_fraction, 1.0);
  EXPECT_EQ(report.dominant_stage, "pipe.transmit");
  EXPECT_NEAR(report.dominant_share, 29.0 / 65.0, 1e-12);
  EXPECT_EQ(find_stage(report, "explorer.rollout"), nullptr);
  EXPECT_EQ(find_stage(report, "unattributed"), nullptr);

  const struct {
    const char* stage;
    double total_ms;
  } kExpected[] = {
      {"serialize", 10.0}, {"compress", 2.0},  {"store.put", 8.0},
      {"route", 1.0},      {"pipe.transmit", 29.0}, {"rehost", 2.0},
      {"queue.wait", 8.0}, {"recv", 5.0},
  };
  double sum = 0.0;
  for (const auto& expected : kExpected) {
    const StageBreakdown* stage = find_stage(report, expected.stage);
    ASSERT_NE(stage, nullptr) << expected.stage;
    EXPECT_DOUBLE_EQ(stage->total_ms, expected.total_ms) << expected.stage;
    EXPECT_DOUBLE_EQ(stage->mean_ms, expected.total_ms) << expected.stage;
    EXPECT_NEAR(stage->share, expected.total_ms / 65.0, 1e-12);
    EXPECT_EQ(stage->spans, 1u);
    sum += stage->total_ms;
  }
  EXPECT_DOUBLE_EQ(sum, report.total_end_to_end_ms);
  // Stages come back sorted by total time, largest first.
  for (std::size_t i = 1; i < report.stages.size(); ++i) {
    EXPECT_GE(report.stages[i - 1].total_ms, report.stages[i].total_ms);
  }
}

TEST(CriticalPath, SpanOrderDoesNotMatter) {
  std::vector<TraceSpan> spans = full_lifecycle(1);
  auto more = full_lifecycle(2, /*offset_ms=*/1'000);
  spans.insert(spans.end(), more.begin(), more.end());
  std::mt19937 rng(123);
  std::shuffle(spans.begin(), spans.end(), rng);

  const CriticalPathReport report = analyze_critical_path(spans);
  EXPECT_EQ(report.messages, 2u);
  EXPECT_DOUBLE_EQ(report.total_end_to_end_ms, 130.0);
  EXPECT_DOUBLE_EQ(report.mean_end_to_end_ms, 65.0);
  EXPECT_EQ(report.dominant_stage, "pipe.transmit");
  const StageBreakdown* transmit = find_stage(report, "pipe.transmit");
  ASSERT_NE(transmit, nullptr);
  EXPECT_DOUBLE_EQ(transmit->total_ms, 58.0);
  EXPECT_DOUBLE_EQ(transmit->mean_ms, 29.0);
  EXPECT_EQ(transmit->spans, 2u);
}

TEST(CriticalPath, NestedSpansAttributeToTheInnermost) {
  const std::vector<TraceSpan> spans = {
      make_span("store.put", 3, 0, 20),
      make_span("msg.serialize", 3, 5, 10),  // nested inside store.put
      make_span("msg.recv", 3, 20, 25),
  };
  const CriticalPathReport report = analyze_critical_path(spans);
  EXPECT_EQ(report.messages, 1u);
  EXPECT_DOUBLE_EQ(report.total_end_to_end_ms, 25.0);
  const StageBreakdown* serialize = find_stage(report, "serialize");
  const StageBreakdown* put = find_stage(report, "store.put");
  ASSERT_NE(serialize, nullptr);
  ASSERT_NE(put, nullptr);
  EXPECT_DOUBLE_EQ(serialize->total_ms, 5.0);  // only its own slice
  EXPECT_DOUBLE_EQ(put->total_ms, 15.0);       // the rest of its window
  EXPECT_DOUBLE_EQ(report.attributed_fraction, 1.0);
}

TEST(CriticalPath, UncoveredTimeLandsInTheUnattributedBucket) {
  const std::vector<TraceSpan> spans = {
      make_span("msg.serialize", 4, 0, 12),
      make_span("msg.recv", 4, 20, 30),  // 8 ms gap in between
  };
  const CriticalPathReport report = analyze_critical_path(spans);
  EXPECT_DOUBLE_EQ(report.total_end_to_end_ms, 30.0);
  const StageBreakdown* gap = find_stage(report, "unattributed");
  ASSERT_NE(gap, nullptr);
  EXPECT_DOUBLE_EQ(gap->total_ms, 8.0);
  EXPECT_NEAR(report.attributed_fraction, 22.0 / 30.0, 1e-12);
  // The gap can never be the dominant stage, however large.
  EXPECT_EQ(report.dominant_stage, "serialize");
  // Stage totals plus the unattributed bucket always reproduce the e2e sum.
  double sum = 0.0;
  for (const StageBreakdown& s : report.stages) sum += s.total_ms;
  EXPECT_DOUBLE_EQ(sum, report.total_end_to_end_ms);
}

TEST(CriticalPath, IncompleteLifecyclesAreCountedNotAttributed) {
  std::vector<TraceSpan> spans = full_lifecycle(1);
  // In flight: sender-side stages recorded, no recv yet.
  spans.push_back(make_span("msg.serialize", 2, 0, 10));
  spans.push_back(make_span("pipe.transmit", 2, 10, 40));
  // Ring-wrapped: only the tail survived.
  spans.push_back(make_span("msg.recv", 3, 100, 110));

  const CriticalPathReport report = analyze_critical_path(spans);
  EXPECT_EQ(report.messages, 1u);
  EXPECT_EQ(report.incomplete, 2u);
  EXPECT_DOUBLE_EQ(report.total_end_to_end_ms, 65.0);
}

TEST(CriticalPath, ReconstructsFromARingWrappedCollector) {
  TraceCollector collector(/*capacity=*/4);
  collector.enable();
  const auto record_lifecycle = [&](std::uint64_t id, std::int64_t offset_ms) {
    collector.record(make_span("msg.serialize", id, offset_ms, offset_ms + 5));
    collector.record(
        make_span("pipe.transmit", id, offset_ms + 5, offset_ms + 20));
    collector.record(make_span("msg.recv", id, offset_ms + 20, offset_ms + 24));
  };
  record_lifecycle(1, 0);
  record_lifecycle(2, 100);  // overwrites message 1's sender-side spans

  const CriticalPathReport report =
      analyze_critical_path(collector.snapshot());
  EXPECT_EQ(report.messages, 1u);    // message 2 survived whole
  EXPECT_EQ(report.incomplete, 1u);  // message 1 lost its head to the wrap
  EXPECT_DOUBLE_EQ(report.total_end_to_end_ms, 24.0);
  EXPECT_EQ(report.dominant_stage, "pipe.transmit");
}

TEST(CriticalPath, EmptyAndUntracedInputsYieldAnEmptyReport) {
  const CriticalPathReport empty = analyze_critical_path({});
  EXPECT_EQ(empty.messages, 0u);
  EXPECT_EQ(empty.dominant_stage, "");
  EXPECT_TRUE(empty.stages.empty());

  // trace_id 0 marks untraced spans; they never form lifecycles.
  const CriticalPathReport untraced =
      analyze_critical_path({make_span("msg.recv", 0, 0, 10)});
  EXPECT_EQ(untraced.messages, 0u);
  EXPECT_EQ(untraced.incomplete, 0u);
}

TEST(CriticalPath, JsonRoundTripsThroughAParser) {
  const CriticalPathReport report =
      analyze_critical_path(full_lifecycle(9));
  const std::string json = critical_path_json(report);

  std::string error;
  const auto parsed = tools::parse_json(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const tools::JsonValue* messages = parsed->find("messages");
  ASSERT_NE(messages, nullptr);
  EXPECT_DOUBLE_EQ(messages->number, 1.0);
  const tools::JsonValue* dominant = parsed->find("dominant_stage");
  ASSERT_NE(dominant, nullptr);
  EXPECT_EQ(dominant->string, "pipe.transmit");
  const tools::JsonValue* stages = parsed->find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->items.size(), 8u);
}

}  // namespace
}  // namespace xt
