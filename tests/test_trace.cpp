#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <chrono>
#include <thread>

#include "comm/broker.h"
#include "comm/endpoint.h"
#include "comm/message.h"
#include "framework/runtime.h"
#include "obs/exporters.h"

namespace xt {
namespace {

// ---------------------------------------------------------------------------
// A deliberately small JSON well-formedness checker (values are not
// interpreted, only the grammar is validated). Enough to prove the Chrome
// trace export is loadable.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TraceSpan make_span(const char* name, std::uint64_t trace_id) {
  TraceSpan span;
  span.name = name;
  span.category = "comm";
  span.trace_id = trace_id;
  span.start_ns = 1000;
  span.dur_ns = 500;
  span.pid = 0;
  return span;
}

TEST(TraceCollector, DisabledRecordsNothing) {
  TraceCollector collector(16);
  EXPECT_FALSE(collector.enabled());
  collector.record(make_span("msg.recv", 1));
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.total_recorded(), 0u);
}

TEST(TraceCollector, RingOverwritesOldestWhenFull) {
  TraceCollector collector(4);
  collector.enable();
  for (std::uint64_t i = 1; i <= 10; ++i) {
    collector.record(make_span("store.put", i));
  }
  EXPECT_EQ(collector.size(), 4u);
  EXPECT_EQ(collector.total_recorded(), 10u);
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first: ids 7, 8, 9, 10 survive.
  EXPECT_EQ(spans.front().trace_id, 7u);
  EXPECT_EQ(spans.back().trace_id, 10u);
}

TEST(Stage, NullCollectorIsSafe) {
  Stage stage(StageId::kRecv, nullptr, nullptr, 1, 0);
  stage.set_bytes(100);
  // Neither a histogram nor a collector: the stage reads no clock.
  EXPECT_EQ(stage.finish(), 0.0);
}

TEST(Stage, RecordsOnceOnFinishAndDestruction) {
  TraceCollector collector(16);
  collector.enable();
  {
    Stage stage(StageId::kRoute, nullptr, &collector, 9, 2, 123);
    stage.finish();
    stage.finish();  // idempotent
  }                  // destructor must not double-record
  EXPECT_EQ(collector.total_recorded(), 1u);
  const auto spans = collector.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "router.route");
  EXPECT_STREQ(spans[0].category, "comm");
  EXPECT_EQ(spans[0].trace_id, 9u);
  EXPECT_EQ(spans[0].pid, 2u);
  EXPECT_EQ(spans[0].bytes, 123u);
  EXPECT_GE(spans[0].dur_ns, 0);
}

TEST(Stage, SpanDurationIsTheObservedValue) {
  TraceCollector collector(16);
  collector.enable();
  Histogram histogram;
  double finished_ms = 0.0;
  {
    Stage stage(StageId::kStorePut, &histogram, &collector, 4, 1, 64);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    finished_ms = stage.finish();
  }
  ASSERT_EQ(collector.total_recorded(), 1u);
  ASSERT_EQ(histogram.count(), 1u);
  const TraceSpan span = collector.snapshot().front();
  EXPECT_STREQ(span.name, "store.put");
  EXPECT_GE(span.dur_ns, 1'000'000);
  // One interval feeds both records.
  EXPECT_EQ(ns_to_ms(span.dur_ns), histogram.sum());
  EXPECT_EQ(finished_ms, histogram.sum());
}

TEST(Stage, DisabledCollectorRecordsNoSpan) {
  TraceCollector collector(16);  // never enabled
  Histogram histogram;
  { Stage stage(StageId::kSerialize, &histogram, &collector, 4, 0); }
  EXPECT_EQ(collector.total_recorded(), 0u);
  EXPECT_EQ(histogram.count(), 1u);
  // Without a histogram as well, the stage is untimed: no clock, no record.
  Stage untimed(StageId::kSerialize, nullptr, &collector, 4, 0);
  EXPECT_EQ(untimed.finish(), 0.0);
  EXPECT_EQ(collector.total_recorded(), 0u);
}

TEST(Stage, BackdatedStageStartsWhereItWasStamped) {
  TraceCollector collector(16);
  collector.enable();
  Histogram histogram;
  const std::int64_t stamped_ns = now_ns() - 2'000'000;
  Stage::since(stamped_ns, StageId::kQueueWait, &histogram, &collector, 5, 1, 32);
  const TraceSpan span = collector.snapshot().front();
  EXPECT_STREQ(span.name, "queue.wait");
  EXPECT_EQ(span.start_ns, stamped_ns);
  EXPECT_GE(span.dur_ns, 2'000'000);
  EXPECT_EQ(span.bytes, 32u);
  EXPECT_EQ(ns_to_ms(span.dur_ns), histogram.sum());
}

TEST(Stage, CancelRecordsNothing) {
  TraceCollector collector(16);
  collector.enable();
  Histogram histogram;
  {
    Stage stage(StageId::kLearnerWait, &histogram, &collector, 0, 0);
    stage.cancel();
  }
  EXPECT_EQ(collector.total_recorded(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(Stage, HoldsItsRowsProfilerLabelUntilFinished) {
  prof::ThreadState& state = prof::current_state();
  const std::uint32_t depth = state.depth.load();
  {
    Stage stage(StageId::kLearnerWait, nullptr, nullptr, 0, 0);
    ASSERT_EQ(state.depth.load(), depth + 1);
    EXPECT_STREQ(state.stack[depth].label.load(), "wait_data");
    EXPECT_TRUE(state.stack[depth].idle.load());
    stage.finish();
    EXPECT_EQ(state.depth.load(), depth);
  }
  EXPECT_EQ(state.depth.load(), depth);
  // A stage stamped elsewhere holds no label.
  Stage::since(now_ns(), StageId::kPipeTransmit, nullptr, nullptr, 0, 0);
  EXPECT_EQ(state.depth.load(), depth);
}

TEST(StageTable, RowsAreFoundByTheirSpanNames) {
  MetricsRegistry registry;
  Histogram& put = stage_histogram(registry, StageId::kStorePut, {std::uint16_t{1}});
  EXPECT_EQ(&put, &registry.histogram(metric::xt_store_put_ms, {1}));
  EXPECT_EQ(registry.histograms().front().first, "xt_store_put_ms{machine=\"1\"}");
  for (const StageRow& row : kStages) {
    EXPECT_EQ(find_stage(row.span), &row) << row.span;
    EXPECT_EQ(row.path_key != nullptr, std::string_view(row.category) == "comm")
        << row.span;
  }
  EXPECT_EQ(find_stage("no.such.span"), nullptr);
}

TEST(MessageHeader, TracingAddsNoHeaderBytes) {
  // trace_id is aliased to msg_id: enabling the telemetry layer must not
  // grow the struct copied once per destination. (The budget covers the
  // wire-protocol fields, which telemetry must not push past.)
  EXPECT_LE(sizeof(MessageHeader), 120u);
  MessageHeader header;
  header.msg_id = 77;
  EXPECT_EQ(header.trace_id(), 77u);
}

// ---------------------------------------------------------------------------
// End-to-end: a two-machine run with tracing enabled must record every hop
// of the message lifecycle, stitched by one trace id, and export well-formed
// Chrome JSON.

AlgoSetup tiny_impala_setup() {
  AlgoSetup setup;
  setup.kind = AlgoKind::kImpala;
  setup.env_name = "CartPole";
  setup.seed = 1;
  setup.impala.hidden = {16};
  setup.impala.fragment_len = 50;
  return setup;
}

TEST(RuntimeTracing, TwoMachineRunCoversEveryLifecycleHop) {
  DeploymentConfig deployment;
  // Learner + controller on machine 0, explorers on machine 1: every rollout
  // crosses the simulated NIC, so the remote hops are exercised too.
  deployment.explorers_per_machine = {0, 2};
  deployment.learner_machine = 0;
  deployment.max_steps_consumed = 1'000;
  deployment.max_seconds = 30.0;
  deployment.obs.tracing = true;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 1'000u);
  EXPECT_GT(report.mean_rollout_ms, 0.0);
  EXPECT_FALSE(report.prometheus.empty());
  EXPECT_NE(report.prometheus.find("xt_broker_routed_total"), std::string::npos);
  EXPECT_NE(report.prometheus.find("xt_pipe_wire_bytes_total"), std::string::npos);

  const std::vector<TraceSpan> spans = runtime.trace().snapshot();
  ASSERT_FALSE(spans.empty());

  // Group span names by trace id; at least one message must have completed
  // the full cross-machine lifecycle.
  std::map<std::uint64_t, std::set<std::string>> by_id;
  for (const TraceSpan& span : spans) {
    if (span.trace_id != 0) by_id[span.trace_id].insert(span.name);
  }
  const std::vector<std::string> lifecycle = {
      "msg.serialize", "store.put",    "router.route", "pipe.transmit",
      "broker.rehost", "queue.wait",   "msg.recv"};
  bool complete = false;
  for (const auto& [id, names] : by_id) {
    complete = std::all_of(lifecycle.begin(), lifecycle.end(),
                           [&names](const std::string& hop) {
                             return names.count(hop) > 0;
                           });
    if (complete) break;
  }
  EXPECT_TRUE(complete)
      << "no trace id covered all lifecycle hops across the two machines";

  // The Chrome export of those spans must be valid JSON.
  std::ostringstream os;
  write_chrome_trace(runtime.trace(), os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << "malformed chrome trace JSON";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("machine-1"), std::string::npos);
  EXPECT_NE(json.find("pipe.transmit"), std::string::npos);
}

TEST(RuntimeTracing, DisabledByDefaultRecordsNoSpans) {
  DeploymentConfig deployment;
  deployment.explorers_per_machine = {2};
  deployment.max_steps_consumed = 500;
  deployment.max_seconds = 30.0;

  XingTianRuntime runtime(tiny_impala_setup(), deployment);
  const RunReport report = runtime.run();
  EXPECT_GE(report.steps_consumed, 500u);
  EXPECT_EQ(runtime.trace().total_recorded(), 0u);
  // Metrics still flow when tracing is off.
  EXPECT_NE(report.prometheus.find("xt_messages_sent_total"), std::string::npos);
}

TEST(RuntimeTracing, ReadyPayloadLocalPathIsZeroCopyWithNoSerializeSpan) {
  // The scatter-gather contract end to end: a message sent with a ready
  // Payload (as opposed to a deferred producer) must reach a local receiver
  // as the *same* buffer — no serialize hop, no copy — and its traced
  // lifecycle must therefore contain no msg.serialize span.
  TraceCollector trace(1024);
  trace.enable();
  Broker::Options options;
  options.trace = &trace;
  Broker broker(0, options);
  Endpoint sender(explorer_id(0, 0), broker);
  Endpoint receiver(learner_id(0), broker);

  const Payload body = make_payload(Bytes(256, 8));
  Outbound out = make_outbound(sender.id(), {receiver.id()}, MsgType::kRollout,
                               body);
  const std::uint64_t trace_id = out.header.trace_id();
  ASSERT_TRUE(sender.send(std::move(out)));
  const auto msg = receiver.receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body.get(), body.get());  // the buffer, not a copy

  bool saw_recv = false;
  for (const TraceSpan& span : trace.snapshot()) {
    if (span.trace_id != trace_id) continue;
    const std::string_view name = span.name;
    EXPECT_NE(name, "msg.serialize")
        << "ready-Payload send must not pay a serialize hop";
    if (name == "msg.recv") saw_recv = true;
  }
  EXPECT_TRUE(saw_recv) << "lifecycle was not traced at all";
}

}  // namespace
}  // namespace xt
