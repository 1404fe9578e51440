#include "common/stats.h"

#include <gtest/gtest.h>

namespace xt {
namespace {

TEST(LatencyRecorder, QuantilesOnKnownData) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.add(i);
  EXPECT_EQ(r.count(), 100u);
  EXPECT_NEAR(r.mean(), 50.5, 1e-9);
  EXPECT_NEAR(r.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(r.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(r.quantile(0.5), 50.5, 1.0);
}

TEST(LatencyRecorder, CdfIsMonotonic) {
  LatencyRecorder r;
  for (int i = 0; i < 57; ++i) r.add((i * 37) % 100);
  const auto cdf = r.cdf(21);
  ASSERT_EQ(cdf.size(), 21u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(LatencyRecorder, EmptyIsSafe) {
  LatencyRecorder r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_DOUBLE_EQ(r.mean(), 0.0);
  EXPECT_DOUBLE_EQ(r.quantile(0.5), 0.0);
  EXPECT_TRUE(r.cdf(10).empty());
}

TEST(ThroughputSeries, BucketsAmountsIntoWindows) {
  ThroughputSeries s(1.0);
  s.add(0.1, 10.0);
  s.add(0.9, 20.0);
  s.add(1.5, 5.0);
  const auto series = s.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].rate, 30.0);
  EXPECT_DOUBLE_EQ(series[1].rate, 5.0);
}

TEST(ThroughputSeries, SubSecondWindows) {
  ThroughputSeries s(0.5);
  s.add(0.2, 1.0);
  s.add(0.7, 1.0);
  const auto series = s.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].rate, 2.0);  // 1 unit / 0.5 s
}

TEST(FormatHelpers, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.50 MiB");
}

TEST(FormatHelpers, Si) {
  EXPECT_EQ(format_si(1500), "1.50k");
  EXPECT_EQ(format_si(2.5e6), "2.50M");
  EXPECT_EQ(format_si(12), "12.00");
}

}  // namespace
}  // namespace xt
