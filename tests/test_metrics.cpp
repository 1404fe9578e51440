#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "obs/exporters.h"

namespace xt {
namespace {

TEST(Counter, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("xt_test_total");

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
  Gauge& gauge = registry.gauge("xt_test_gauge");
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(42.5);
  EXPECT_EQ(gauge.value(), 42.5);
  gauge.set(40.0);
  EXPECT_EQ(gauge.value(), 40.0);
}

TEST(Histogram, ConcurrentObservationsKeepTotalsConsistent) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("xt_test_ms");

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
  MetricsRegistry registry;
  Counter& a = registry.counter("xt_dup_total");
  Counter& b = registry.counter("xt_dup_total");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("xt_dup_ms");
  Histogram& h2 = registry.histogram("xt_dup_ms");
  EXPECT_EQ(&h1, &h2);
  // A counter and a histogram may share a namespace without aliasing.
  EXPECT_NE(static_cast<void*>(&a), static_cast<void*>(&h1));
}

TEST(MetricsRegistry, SnapshotsAreSortedByName) {
  MetricsRegistry registry;
  registry.counter("xt_b_total").inc(2);
  registry.counter("xt_a_total").inc(1);
  registry.counter("xt_c_total").inc(3);
  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "xt_a_total");
  EXPECT_EQ(counters[1].first, "xt_b_total");
  EXPECT_EQ(counters[2].first, "xt_c_total");
}

TEST(MetricsRegistry, SeriesNameJoinsLabelsInOrder) {
  EXPECT_EQ(series_name("xt_plain_total", {}), "xt_plain_total");
  EXPECT_EQ(series_name("xt_routed_total", {{"machine", std::uint16_t{3}}}),
            "xt_routed_total{machine=\"3\"}");
  EXPECT_EQ(series_name("xt_faults_total", {{"link", "m0>m1"}, {"kind", "drop"}}),
            "xt_faults_total{link=\"m0>m1\",kind=\"drop\"}");
}

TEST(MetricsRegistry, FamilyReadersAggregateEveryLabeledSeries) {
  MetricsRegistry registry;
  registry.counter("xt_x_total").inc(1);
  registry.counter("xt_x_total{machine=\"0\"}").inc(2);
  registry.counter("xt_x_total_other").inc(100);  // another family, same prefix
  EXPECT_EQ(registry.family_total("xt_x_total"), 3u);
  EXPECT_EQ(registry.family_total("xt_absent_total"), 0u);

  registry.histogram("xt_h_ms{machine=\"0\"}").observe(1.0);
  registry.histogram("xt_h_ms{machine=\"1\"}").observe(3.0);
  registry.histogram("xt_h_ms{machine=\"1\"}").observe(5.0);
  EXPECT_DOUBLE_EQ(registry.family_mean("xt_h_ms"), 3.0);
  // Merged buckets: the median lies in 3.0's bucket (2.048, 4.096], the max
  // in 5.0's (4.096, 8.192].
  EXPECT_GT(registry.family_quantile("xt_h_ms", 0.5), 2.0);
  EXPECT_LT(registry.family_quantile("xt_h_ms", 0.5), 4.1);
  EXPECT_GT(registry.family_quantile("xt_h_ms", 1.0), 4.1);
  EXPECT_LT(registry.family_quantile("xt_h_ms", 1.0), 8.2);
  EXPECT_EQ(registry.family_mean("xt_absent_ms"), 0.0);
  EXPECT_EQ(registry.family_quantile("xt_absent_ms", 0.5), 0.0);

  // Reading a family registers nothing.
  EXPECT_EQ(registry.counters().size(), 3u);
  EXPECT_EQ(registry.histograms().size(), 2u);
}

TEST(MetricsRegistry, FamilyOfOneReadsItsHistogramsQuantile) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("xt_q_ms{machine=\"0\"}");
  // The first bucket (<= 1 us) stays empty; 1e9 ms overflows the last bound.
  for (const double v : {5.0, 6.0, 7.0, 1e9}) hist.observe(v);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(registry.family_quantile("xt_q_ms", q), hist.quantile(q))
        << "q=" << q;
  }
  // The +inf bucket reads its lower edge, an empty bucket its lower edge too.
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), Histogram::bounds().back());
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.0);
}

TEST(PrometheusExporter, GoldenOutput) {
  MetricsRegistry registry;
  registry.counter("xt_routed_total{machine=\"0\"}").inc(7);
  registry.counter("xt_routed_total{machine=\"1\"}").inc(3);
  registry.gauge("xt_depth").set(2.0);
  Histogram& hist = registry.histogram("xt_lat_ms");
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
  MetricsRegistry registry;
  // Metric names embed label values verbatim; the exporter must escape
  // backslashes, quotes and newlines per the exposition format.
  registry.counter("xt_path_total{path=\"C:\\tmp\"}").inc(1);
  registry.counter("xt_quote_total{q=\"he said \"hi\"\"}").inc(2);
  registry.gauge("xt_nl{queue=\"a\nb\"}").set(3.0);
  registry.counter("xt_multi_total{a=\"x\\\",b=\"y\"}").inc(4);

  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("xt_path_total{path=\"C:\\\\tmp\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xt_quote_total{q=\"he said \\\"hi\\\"\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xt_nl{queue=\"a\\nb\"} 3"), std::string::npos) << text;
  EXPECT_NE(text.find("xt_multi_total{a=\"x\\\\\",b=\"y\"} 4"),
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
  MetricsRegistry registry;
  registry.histogram("xt_h_ms{tag=\"a\\b\"}").observe(0.5);

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
