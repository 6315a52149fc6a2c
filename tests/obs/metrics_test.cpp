#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>
#include <string>

#include "common/thread_pool.hpp"

namespace rrf::obs {
namespace {

TEST(ObsMetrics, CounterConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.hits");
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 10000;
  global_pool().parallel_for(kTasks, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerTask; ++i) c.add();
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);
}

TEST(ObsMetrics, CounterRegistrationIsRaceFreeAndStable) {
  MetricsRegistry registry;
  // All tasks race to register the same name; every reference must land on
  // the same instrument.
  constexpr std::size_t kTasks = 32;
  global_pool().parallel_for(kTasks, [&](std::size_t) {
    registry.counter("race.single").add();
  });
  EXPECT_EQ(registry.counter("race.single").value(), kTasks);
}

TEST(ObsMetrics, HistogramConcurrentObserveKeepsEverySample) {
  MetricsRegistry registry;
  const std::array<double, 3> bounds = {1.0, 10.0, 100.0};
  Histogram& h = registry.histogram("test.latency", bounds);
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kPerTask = 5000;
  global_pool().parallel_for(kTasks, [&](std::size_t t) {
    for (std::size_t i = 0; i < kPerTask; ++i) {
      h.observe(static_cast<double>((t * kPerTask + i) % 200));
    }
  });
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : h.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 199.0);
}

TEST(ObsMetrics, HistogramBucketBoundariesAreInclusive) {
  MetricsRegistry registry;
  const std::array<double, 2> bounds = {1.0, 2.0};
  Histogram& h = registry.histogram("test.edges", bounds);
  h.observe(1.0);   // first bucket (<= 1.0)
  h.observe(1.5);   // second bucket
  h.observe(99.0);  // overflow bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 101.5);
  EXPECT_NEAR(h.mean(), 101.5 / 3.0, 1e-12);
}

TEST(ObsMetrics, HistogramQuantileInterpolates) {
  MetricsRegistry registry;
  const std::array<double, 4> bounds = {1.0, 2.0, 4.0, 8.0};
  Histogram& h = registry.histogram("test.quantile", bounds);
  for (int i = 0; i < 100; ++i) h.observe(1.5);  // all in (1, 2]
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_EQ(h.quantile(0.0), 1.0);
}

TEST(ObsMetrics, SnapshotQuantileMatchesTheLiveHistogram) {
  MetricsRegistry registry;
  const std::array<double, 4> bounds = {1.0, 2.0, 4.0, 8.0};
  Histogram& h = registry.histogram("test.snapq", bounds);
  for (int i = 0; i < 90; ++i) h.observe(1.5);
  for (int i = 0; i < 9; ++i) h.observe(3.0);
  h.observe(20.0);  // overflow bucket

  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const MetricsSnapshot::HistogramData& data = snapshot.histograms[0].second;
  EXPECT_EQ(data.count, 100u);
  EXPECT_DOUBLE_EQ(data.min, 1.5);
  EXPECT_DOUBLE_EQ(data.max, 20.0);
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(data.quantile(q), h.quantile(q)) << "q=" << q;
  }
  // p95 lands in the (2, 4] bucket, p99 in the overflow (capped at max).
  EXPECT_GT(data.quantile(0.95), 2.0);
  EXPECT_LE(data.quantile(0.95), 4.0);
  EXPECT_GT(data.quantile(0.999), 8.0);
  EXPECT_LE(data.quantile(0.999), 20.0);
}

TEST(ObsMetrics, GaugeLastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test.level");
  g.set(3.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.25);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(ObsMetrics, FindersReturnNullForUnknownNames) {
  MetricsRegistry registry;
  registry.counter("known");
  EXPECT_NE(registry.find_counter("known"), nullptr);
  EXPECT_EQ(registry.find_counter("unknown"), nullptr);
  EXPECT_EQ(registry.find_gauge("known"), nullptr);
  EXPECT_EQ(registry.find_histogram("known"), nullptr);
}

TEST(ObsMetrics, ResetZeroesButKeepsInstruments) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.count");
  Histogram& h =
      registry.histogram("test.hist", default_seconds_bounds());
  c.add(7);
  h.observe(0.5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  // Same instrument objects are still registered.
  EXPECT_EQ(&registry.counter("test.count"), &c);
}

TEST(ObsMetrics, JsonExportContainsEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("c.one").add(3);
  registry.gauge("g.one").set(1.5);
  registry.histogram("h.one", default_seconds_bounds()).observe(2e-6);
  std::ostringstream os;
  registry.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"c.one\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"h.one\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ObsMetrics, CsvExportHasHeaderAndRows) {
  MetricsRegistry registry;
  registry.counter("c.two").add(5);
  registry.histogram("h.two", default_seconds_bounds()).observe(0.25);
  std::ostringstream os;
  registry.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,c.two,value,5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h.two,count,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h.two,p95,"), std::string::npos);
}

TEST(ObsMetrics, CsvExportKeepsEveryDigit) {
  MetricsRegistry registry;
  registry.gauge("g.big").set(12345678.9);
  registry.gauge("g.up").set(std::numeric_limits<double>::infinity());
  registry.histogram("h.big", default_magnitude_bounds()).observe(1e7 / 3.0);
  std::ostringstream os;
  registry.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("gauge,g.big,value,12345678.9\n"), std::string::npos)
      << csv;
  EXPECT_NE(csv.find("gauge,g.up,value,+Inf\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h.big,sum,3333333.3333333335\n"),
            std::string::npos);
  EXPECT_EQ(format_sample(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(format_sample(std::numeric_limits<double>::quiet_NaN()), "NaN");
  EXPECT_EQ(format_sample(0.1), "0.1");
}

TEST(ObsMetrics, RuntimeSwitchDefaultsOffAndRoundTrips) {
  // The global default must be off so the instrumentation in the alloc /
  // hypervisor hot paths stays dormant for every other test and bench.
  const bool before = metrics_enabled();
  set_metrics_enabled(true);
  EXPECT_TRUE(metrics_enabled());
  set_metrics_enabled(false);
  EXPECT_FALSE(metrics_enabled());
  set_metrics_enabled(before);
}

}  // namespace
}  // namespace rrf::obs
