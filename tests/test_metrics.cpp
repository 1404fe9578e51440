#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "obs/exporters.h"

namespace xt {
namespace {

using enum MetricKind;

constexpr MetricRow kTestTotal{"xt_test_total", kCounter};
constexpr MetricRow kTestGauge{"xt_test_gauge", kGauge};
constexpr MetricRow kTestMs{"xt_test_ms", kHistogram};

TEST(Counter, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter(kTestTotal);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetReplacesTheValue) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge(kTestGauge);
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(42.5);
  EXPECT_EQ(gauge.value(), 42.5);
  gauge.set(40.0);
  EXPECT_EQ(gauge.value(), 40.0);
}

TEST(Histogram, ConcurrentObservationsKeepTotalsConsistent) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram(kTestMs);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(static_cast<double>(t) + 0.5);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t expected = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(hist.count(), expected);
  // Sum of thread values: (0.5 + 1.5 + 2.5 + 3.5) * per-thread.
  EXPECT_NEAR(hist.sum(), 8.0 * kPerThread, 1e-6 * hist.sum());

  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : hist.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, expected);
}

TEST(Histogram, QuantileIsMonotoneAndBracketsData) {
  Histogram hist;
  for (int i = 1; i <= 1000; ++i) hist.observe(static_cast<double>(i));
  const double p10 = hist.quantile(0.10);
  const double p50 = hist.quantile(0.50);
  const double p99 = hist.quantile(0.99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  // Bucket interpolation is coarse (exponential buckets), so only bracket.
  EXPECT_GT(p50, 100.0);
  EXPECT_LT(p50, 1024.0);
  EXPECT_EQ(hist.mean(), hist.sum() / static_cast<double>(hist.count()));
}

TEST(MetricsRegistry, SameNameReturnsSameHandle) {
  const MetricRow kDupTotal{"xt_dup_total", kCounter, {"machine"}};
  const MetricRow kDupMs{"xt_dup_ms", kHistogram};
  MetricsRegistry registry;
  Counter& a = registry.counter(kDupTotal, {0});
  EXPECT_EQ(&a, &registry.counter(kDupTotal, {std::uint16_t{0}}));
  EXPECT_NE(&a, &registry.counter(kDupTotal, {1}));
  Histogram& h1 = registry.histogram(kDupMs);
  EXPECT_EQ(&h1, &registry.histogram(kDupMs));
}

TEST(MetricsRegistry, OneRowPerFamilyAndValuesThatFitIt) {
  const MetricRow kRow{"xt_row_total", kCounter, {"machine"}};
  const MetricRow kOtherRow{"xt_row_total", kCounter, {"link"}};
  MetricsRegistry registry;
  (void)registry.counter(kRow, {3});
  EXPECT_THROW((void)registry.gauge(kRow, {3}), std::invalid_argument);
  EXPECT_THROW((void)registry.counter(kRow), std::invalid_argument);
  EXPECT_THROW((void)registry.counter(kRow, {3, 4}), std::invalid_argument);
  EXPECT_THROW((void)registry.counter(kOtherRow, {3}), std::invalid_argument);
  EXPECT_EQ(registry.series().size(), 1u);
}

TEST(MetricsRegistry, SnapshotsAreSortedByName) {
  const MetricRow kB{"xt_b_total", kCounter};
  const MetricRow kA{"xt_a_total", kCounter};
  const MetricRow kC{"xt_c_total", kCounter};
  MetricsRegistry registry;
  registry.counter(kB).inc(2);
  registry.counter(kA).inc(1);
  registry.counter(kC).inc(3);
  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "xt_a_total");
  EXPECT_EQ(counters[1].first, "xt_b_total");
  EXPECT_EQ(counters[2].first, "xt_c_total");
}

TEST(MetricsRegistry, SeriesNameJoinsLabelsInOrder) {
  const MetricRow kPlain{"xt_plain_total", kCounter};
  const MetricRow kRouted{"xt_routed_total", kCounter, {"machine"}};
  const MetricRow kFaults{"xt_faults_total", kCounter, {"link", "kind"}};
  MetricsRegistry registry;
  (void)registry.counter(kPlain);
  (void)registry.counter(kRouted, {std::uint16_t{3}});
  (void)registry.counter(kFaults, {"m0>m1", "drop"});
  std::vector<std::string> names;
  for (const auto& [name, value] : registry.counters()) names.push_back(name);
  const std::vector<std::string> expected = {
      R"(xt_faults_total{link="m0>m1",kind="drop"})", "xt_plain_total",
      R"(xt_routed_total{machine="3"})"};
  EXPECT_EQ(names, expected);
  const auto series = registry.series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0]->row, &kFaults);
  EXPECT_EQ(series[0]->values, (std::vector<std::string>{"m0>m1", "drop"}));
}

TEST(MetricsRegistry, FamilyReadersAggregateEveryLabeledSeries) {
  const MetricRow kX{"xt_x_total", kCounter, {"machine"}};
  const MetricRow kXOther{"xt_x_total_other", kCounter};
  const MetricRow kAbsentTotal{"xt_absent_total", kCounter};
  const MetricRow kH{"xt_h_ms", kHistogram, {"machine"}};
  const MetricRow kAbsentMs{"xt_absent_ms", kHistogram};
  MetricsRegistry registry;
  registry.counter(kX, {0}).inc(1);
  registry.counter(kX, {1}).inc(2);
  registry.counter(kXOther).inc(100);  // another family, same prefix
  EXPECT_EQ(registry.total(kX), 3u);
  EXPECT_EQ(registry.total(kAbsentTotal), 0u);

  registry.histogram(kH, {0}).observe(1.0);
  registry.histogram(kH, {1}).observe(3.0);
  registry.histogram(kH, {1}).observe(5.0);
  EXPECT_DOUBLE_EQ(registry.mean(kH), 3.0);
  // Merged buckets: the median lies in 3.0's bucket (2.048, 4.096], the max
  // in 5.0's (4.096, 8.192].
  EXPECT_GT(registry.quantile(kH, 0.5), 2.0);
  EXPECT_LT(registry.quantile(kH, 0.5), 4.1);
  EXPECT_GT(registry.quantile(kH, 1.0), 4.1);
  EXPECT_LT(registry.quantile(kH, 1.0), 8.2);
  EXPECT_EQ(registry.mean(kAbsentMs), 0.0);
  EXPECT_EQ(registry.quantile(kAbsentMs, 0.5), 0.0);

  // Reading a family registers nothing.
  EXPECT_EQ(registry.counters().size(), 3u);
  EXPECT_EQ(registry.histograms().size(), 2u);
}

TEST(MetricsRegistry, FamilyOfOneReadsItsHistogramsQuantile) {
  const MetricRow kQ{"xt_q_ms", kHistogram, {"machine"}};
  MetricsRegistry registry;
  Histogram& hist = registry.histogram(kQ, {0});
  // The first bucket (<= 1 us) stays empty; 1e9 ms overflows the last bound.
  for (const double v : {5.0, 6.0, 7.0, 1e9}) hist.observe(v);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(registry.quantile(kQ, q), hist.quantile(q)) << "q=" << q;
  }
  // The +inf bucket reads its lower edge, an empty bucket its lower edge too.
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), Histogram::bounds().back());
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.0);
}

TEST(PrometheusExporter, GoldenOutput) {
  const MetricRow kRouted{"xt_routed_total", kCounter, {"machine"}};
  const MetricRow kDepth{"xt_depth", kGauge};
  const MetricRow kLat{"xt_lat_ms", kHistogram};
  MetricsRegistry registry;
  registry.counter(kRouted, {0}).inc(7);
  registry.counter(kRouted, {1}).inc(3);
  registry.gauge(kDepth).set(2.0);
  Histogram& hist = registry.histogram(kLat);
  hist.observe(0.5);       // <= 0.512
  hist.observe(5.0);       // <= 8.192
  hist.observe(200000.0);  // +Inf

  const std::string expected =
      "# TYPE xt_routed_total counter\n"
      "xt_routed_total{machine=\"0\"} 7\n"
      "xt_routed_total{machine=\"1\"} 3\n"
      "# TYPE xt_depth gauge\n"
      "xt_depth 2\n"
      "# TYPE xt_lat_ms histogram\n"
      "xt_lat_ms_bucket{le=\"0.001\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.002\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.004\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.008\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.016\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.032\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.064\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.128\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.256\"} 0\n"
      "xt_lat_ms_bucket{le=\"0.512\"} 1\n"
      "xt_lat_ms_bucket{le=\"1.024\"} 1\n"
      "xt_lat_ms_bucket{le=\"2.048\"} 1\n"
      "xt_lat_ms_bucket{le=\"4.096\"} 1\n"
      "xt_lat_ms_bucket{le=\"8.192\"} 2\n"
      "xt_lat_ms_bucket{le=\"16.384\"} 2\n"
      "xt_lat_ms_bucket{le=\"32.768\"} 2\n"
      "xt_lat_ms_bucket{le=\"65.536\"} 2\n"
      "xt_lat_ms_bucket{le=\"131.072\"} 2\n"
      "xt_lat_ms_bucket{le=\"262.144\"} 2\n"
      "xt_lat_ms_bucket{le=\"524.288\"} 2\n"
      "xt_lat_ms_bucket{le=\"1048.58\"} 2\n"
      "xt_lat_ms_bucket{le=\"2097.15\"} 2\n"
      "xt_lat_ms_bucket{le=\"4194.3\"} 2\n"
      "xt_lat_ms_bucket{le=\"8388.61\"} 2\n"
      "xt_lat_ms_bucket{le=\"16777.2\"} 2\n"
      "xt_lat_ms_bucket{le=\"33554.4\"} 2\n"
      "xt_lat_ms_bucket{le=\"67108.9\"} 2\n"
      "xt_lat_ms_bucket{le=\"134218\"} 2\n"
      "xt_lat_ms_bucket{le=\"+Inf\"} 3\n"
      "xt_lat_ms_sum 200006\n"
      "xt_lat_ms_count 3\n"
      "# TYPE xt_log_warnings_total counter\n"
      "xt_log_warnings_total " + std::to_string(log_warning_count()) + "\n";
  EXPECT_EQ(prometheus_text(registry), expected);
}

TEST(PrometheusExporter, HostileLabelValuesAreEscaped) {
  const MetricRow kPath{"xt_path_total", kCounter, {"path"}};
  const MetricRow kQuote{"xt_quote_total", kCounter, {"q"}};
  const MetricRow kNl{"xt_nl", kGauge, {"queue"}};
  const MetricRow kMulti{"xt_multi_total", kCounter, {"a", "b"}};
  MetricsRegistry registry;
  // Label values go into series names verbatim; the exporter must escape
  // backslashes, quotes and newlines per the exposition format.
  registry.counter(kPath, {"C:\\tmp"}).inc(1);
  registry.counter(kQuote, {"he said \"hi\""}).inc(2);
  registry.gauge(kNl, {"a\nb"}).set(3.0);
  registry.counter(kMulti, {"x\\\",b=\"y", "z"}).inc(4);

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("xt_path_total{path=\"C:\\\\tmp\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xt_quote_total{q=\"he said \\\"hi\\\"\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xt_nl{queue=\"a\\nb\"} 3"), std::string::npos) << text;
  // A value that looks like a second label stays one escaped value.
  EXPECT_NE(text.find("xt_multi_total{a=\"x\\\\\\\",b=\\\"y\",b=\"z\"} 4"),
            std::string::npos)
      << text;
  // No raw newline may survive inside a sample line: every line must look
  // like `name{labels} value` or a comment.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_NE(line.find(' '), std::string::npos) << "dangling: " << line;
    }
    start = end + 1;
  }
}

TEST(PrometheusExporter, HostileLabelsOnHistogramFamilies) {
  const MetricRow kH{"xt_h_ms", kHistogram, {"tag"}};
  MetricsRegistry registry;
  registry.histogram(kH, {"a\\b"}).observe(0.5);

  const std::string text = prometheus_text(registry);
  // The le label is appended after the (escaped) user labels.
  EXPECT_NE(text.find("xt_h_ms_bucket{tag=\"a\\\\b\",le=\"0.512\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xt_h_ms_sum{tag=\"a\\\\b\"} 0.5"), std::string::npos)
      << text;
  EXPECT_NE(text.find("xt_h_ms_count{tag=\"a\\\\b\"} 1"), std::string::npos)
      << text;
}

TEST(Log, WarningsAreCountedAndFilteredStatementsCostNothing) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);

  const std::uint64_t before = log_warning_count();
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("costly");
  };

  // Filtered out: the operand must never be evaluated.
  XT_LOG_WARN << expensive();
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(log_warning_count(), before);

  // kError passes the filter and counts as a warning-or-worse line.
  XT_LOG_ERROR << expensive();
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(log_warning_count(), before + 1);

  // Suppressed warnings are not counted (the line was never emitted).
  set_log_level(LogLevel::kDebug);
  XT_LOG_WARN << "counted";
  EXPECT_EQ(log_warning_count(), before + 2);

  set_log_level(saved);
}

TEST(LatencyRecorder, ExactBelowCapacity) {
  LatencyRecorder recorder(8);
  for (int i = 1; i <= 8; ++i) recorder.add(static_cast<double>(i));
  EXPECT_EQ(recorder.count(), 8u);
  EXPECT_EQ(recorder.reservoir_size(), 8u);
  EXPECT_DOUBLE_EQ(recorder.mean(), 4.5);
}

TEST(LatencyRecorder, ReservoirBoundsMemoryButKeepsExactAggregates) {
  constexpr std::size_t kCapacity = 64;
  LatencyRecorder recorder(kCapacity);
  constexpr int kN = 100'000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double v = static_cast<double>(i % 1000);
    recorder.add(v);
    sum += v;
  }
  // count/mean stay exact over every observation; only the sample set for
  // quantiles is capped.
  EXPECT_EQ(recorder.count(), static_cast<std::uint64_t>(kN));
  EXPECT_NEAR(recorder.mean(), sum / kN, 1e-9);
  EXPECT_EQ(recorder.reservoir_size(), kCapacity);
  // The reservoir still yields plausible quantiles from the [0, 1000) data.
  const double p50 = recorder.quantile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LT(p50, 1000.0);
}

TEST(LatencyRecorder, DeterministicAcrossRuns) {
  LatencyRecorder a(16);
  LatencyRecorder b(16);
  for (int i = 0; i < 10'000; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
  }
  EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_EQ(a.quantile(0.9), b.quantile(0.9));
}

}  // namespace
}  // namespace xt
