// Unit tests of the MetricsRegistry: handle identity, lock-free publish
// under concurrent ParallelFor workers, histogram percentile bounds, and
// the JSON dump shape.

#include "util/metrics_registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "tests/json_syntax.h"
#include "tests/thread_count_guard.h"
#include "util/parallel.h"

namespace adr {
namespace {

using testutil::ThreadCountGuard;

TEST(CounterTest, IncrementsAccumulate) {
  MetricsRegistry registry;
  Counter* c = registry.counter("a/b");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("a/g");
  EXPECT_EQ(g->value(), 0.0);
  g->Set(1.5);
  g->Add(0.25);
  EXPECT_DOUBLE_EQ(g->value(), 1.75);
}

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("x"), registry.counter("x"));
  EXPECT_EQ(registry.gauge("x"), registry.gauge("x"));
  EXPECT_EQ(registry.histogram("x"), registry.histogram("x"));
  EXPECT_NE(registry.counter("x"), registry.counter("y"));
}

TEST(MetricsRegistryTest, ClearDropsEverything) {
  MetricsRegistry registry;
  registry.counter("c")->Increment();
  registry.gauge("g")->Set(1.0);
  registry.histogram("h")->Record(1.0);
  registry.Clear();
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("h");
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(h->sum(), 0.0);
  EXPECT_EQ(h->min(), 0.0);
  EXPECT_EQ(h->max(), 0.0);
  EXPECT_EQ(h->mean(), 0.0);
  EXPECT_EQ(h->Percentile(50.0), 0.0);
}

TEST(HistogramTest, ExactStatsAreExact) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("h");
  for (const double v : {0.5, 2.0, 8.0, 8.0}) h->Record(v);
  EXPECT_EQ(h->count(), 4);
  EXPECT_DOUBLE_EQ(h->sum(), 18.5);
  EXPECT_DOUBLE_EQ(h->min(), 0.5);
  EXPECT_DOUBLE_EQ(h->max(), 8.0);
  EXPECT_DOUBLE_EQ(h->mean(), 18.5 / 4.0);
}

// The power-of-two bucketing promises relative error <= sqrt(2) on any
// percentile, clamped to [min, max].
TEST(HistogramTest, PercentileWithinGuaranteedRelativeError) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("h");
  for (int i = 1; i <= 1000; ++i) h->Record(static_cast<double>(i));
  const double kSqrt2 = std::sqrt(2.0);
  for (const double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    const double exact = p * 10.0;  // value at percentile p of 1..1000
    const double approx = h->Percentile(p);
    EXPECT_GE(approx, exact / kSqrt2) << "p=" << p;
    EXPECT_LE(approx, exact * kSqrt2) << "p=" << p;
  }
  EXPECT_GE(h->Percentile(0.0), h->min());
  EXPECT_LE(h->Percentile(100.0), h->max());
}

TEST(HistogramTest, NonPositiveValuesLandInBottomBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("h");
  h->Record(0.0);
  h->Record(-3.0);
  EXPECT_EQ(h->count(), 2);
  EXPECT_DOUBLE_EQ(h->min(), -3.0);
  // Percentiles stay clamped to the observed range.
  EXPECT_LE(h->Percentile(50.0), 0.0);
  EXPECT_GE(h->Percentile(50.0), -3.0);
}

// The lock-free publish path must tolerate all ParallelFor workers
// hammering shared handles; the exact totals prove no update was lost.
TEST(MetricsRegistryTest, ConcurrentPublishFromPoolWorkers) {
  ThreadCountGuard guard;
  ThreadPool::SetGlobalThreads(4);

  MetricsRegistry registry;
  Counter* counter = registry.counter("stress/counter");
  Gauge* gauge = registry.gauge("stress/gauge");
  Histogram* histogram = registry.histogram("stress/histogram");

  constexpr int64_t kItems = 10'000;
  ParallelFor(kItems, /*grain=*/64, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      counter->Increment();
      gauge->Add(1.0);
      histogram->Record(static_cast<double>(i % 7 + 1));
      // Concurrent lookups must also be safe.
      registry.counter("stress/lookup")->Increment();
    }
  });

  EXPECT_EQ(counter->value(), kItems);
  EXPECT_DOUBLE_EQ(gauge->value(), static_cast<double>(kItems));
  EXPECT_EQ(histogram->count(), kItems);
  EXPECT_EQ(registry.counter("stress/lookup")->value(), kItems);
}

TEST(MetricsRegistryTest, SnapshotCarriesAllThreeKinds) {
  MetricsRegistry registry;
  registry.counter("c/one")->Increment(3);
  registry.gauge("g/one")->Set(2.5);
  Histogram* h = registry.histogram("h/one");
  h->Record(1.0);
  h->Record(4.0);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.count("c/one"), 1u);
  EXPECT_EQ(snapshot.counters.at("c/one"), 3);
  ASSERT_EQ(snapshot.gauges.count("g/one"), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("g/one"), 2.5);
  ASSERT_EQ(snapshot.histograms.count("h/one"), 1u);
  const auto& stats = snapshot.histograms.at("h/one");
  EXPECT_EQ(stats.count, 2);
  EXPECT_DOUBLE_EQ(stats.sum, 5.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_GE(stats.p50, stats.min);
  EXPECT_LE(stats.p99, stats.max);
}

TEST(MetricsRegistryTest, ToJsonIsValidAndVersioned) {
  MetricsRegistry registry;
  registry.counter("train/steps")->Increment(7);
  registry.gauge("reuse/conv1/r_c")->Set(0.31);
  registry.histogram("core/gemm_seconds")->Record(0.002);
  // A name needing escaping must not break the document.
  registry.counter("weird\"name\\with\ncontrols")->Increment();

  const std::string json = registry.ToJson();
  EXPECT_TRUE(adr::testing::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("train/steps"), std::string::npos);
  EXPECT_NE(json.find("reuse/conv1/r_c"), std::string::npos);
}

TEST(MetricsRegistryTest, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  registry.counter("c")->Increment();
  const std::string path = ::testing::TempDir() + "/metrics_dump.json";
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  EXPECT_TRUE(adr::testing::IsValidJson(contents)) << contents;
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace adr
