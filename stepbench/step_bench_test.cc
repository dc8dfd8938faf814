// Tests of the training-step benchmark's own logic: percentile selection,
// failure counting, metric names and units (against BENCHMARK.json), and
// thread-count independence of the quality metrics.

#include "stepbench/step_bench.h"

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <regex>
#include <set>
#include <sstream>

namespace adr::stepbench {
namespace {

// A short single-episode run of a workload at seed 7.
RunResult MustRun(const std::string& name, int64_t steps, bool trace,
                  int threads = 0, float learning_rate = 0.0f) {
  Result<Workload> w = MakeWorkload(name, 7);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  w->episodes = 1;
  w->episode_steps = steps;
  if (threads > 0) w->threads = threads;
  if (learning_rate > 0.0f) w->learning_rate = learning_rate;
  RunOptions options;
  options.trace = trace;
  Result<RunResult> r = RunWorkload(*w, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : RunResult{};
}

double MetricValue(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return 0.0;
}

// Metric names listed under `section` ("end_to_end" or "per_layer").
std::set<std::string> DeclaredMetrics(const std::string& section) {
  std::ifstream in(STEPBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  std::string json = text.str();
  const size_t begin = json.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const size_t end = json.find(']', begin);
  const std::string body = json.substr(begin, end - begin);
  std::set<std::string> names;
  const std::regex name_re("\"name\":\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

void ExpectWellFormed(const RunResult& r, const std::string& section) {
  std::set<std::string> seen;
  for (const Metric& m : r.metrics) {
    EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
    EXPECT_FALSE(m.unit.empty()) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
  }
  EXPECT_EQ(seen, DeclaredMetrics(section));
}

TEST(TailPercentileTest, NeedsTenSamplesBeyond) {
  std::vector<double> samples(99);
  std::iota(samples.begin(), samples.end(), 1.0);
  EXPECT_FALSE(TailPercentile(samples, 0.9).ok());
  samples.push_back(100.0);
  std::reverse(samples.begin(), samples.end());
  Result<double> p90 = TailPercentile(samples, 0.9);
  ASSERT_TRUE(p90.ok());
  EXPECT_EQ(*p90, 90.0);
  EXPECT_FALSE(TailPercentile(samples, 0.95).ok());
  EXPECT_FALSE(TailPercentile(samples, 1.0).ok());
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(ValidMetricName("tensor.conv1.gemm_fwd_ms"));
  EXPECT_TRUE(ValidMetricName("step_ms_p90"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("bad name"));
  EXPECT_FALSE(ValidMetricName("nn/conv1"));
}

TEST(ResultJsonTest, FullPrecisionAndShape) {
  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  r.correct = false;
  r.metrics = {{"a", "ms", 0.1234567890123}, {"b", "s", 2.0}};
  EXPECT_EQ(ResultJson(r),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"a\": {\"value\": 0.12345678901230001, "
            "\"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}");
}

TEST(WorkloadTest, NamesResolveAndUnknownIsRefused) {
  for (const std::string& name : WorkloadNames()) {
    EXPECT_TRUE(MakeWorkload(name, 1).ok()) << name;
  }
  EXPECT_FALSE(MakeWorkload("nope", 1).ok());
}

TEST(RunTest, EndToEndMetricsMatchDeclaration) {
  // p90 needs >= 100 timed steps.
  const RunResult r = MustRun("cifarnet-dense-2t", 100, /*trace=*/false);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.attempted, 101);
  EXPECT_EQ(r.failed, 0);
  ExpectWellFormed(r, "end_to_end");
  EXPECT_EQ(MetricValue(r, "ok_step_frac"), 1.0);
}

// The short runs below use the traced mode, which needs no p90.
TEST(RunTest, TracedMetricsMatchDeclaration) {
  const RunResult r = MustRun("alexnet-cr-1t", 20, /*trace=*/true);
  ExpectWellFormed(r, "per_layer");
  EXPECT_FALSE(r.self_time_table.empty());
  EXPECT_GT(MetricValue(r, "core.conv1.cache_entries"), 0.0);
  EXPECT_GT(MetricValue(r, "clustering.conv5.hash_ms"), 0.0);
  EXPECT_GT(MetricValue(r, "trace_coverage_frac"), 0.95);
}

TEST(RunTest, DivergentStepsAreCountedAsFailed) {
  const RunResult r =
      MustRun("cifarnet-dense-2t", 20, /*trace=*/true, 0, 1e30f);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.attempted, 21);
  EXPECT_GT(r.failed, 0);
  EXPECT_LE(r.failed, r.attempted);
}

TEST(RunTest, TooFewStepsForP90IsRefused) {
  Result<Workload> w = MakeWorkload("cifarnet-dense-2t", 7);
  ASSERT_TRUE(w.ok());
  w->episodes = 1;
  w->episode_steps = 20;
  RunOptions options;
  EXPECT_FALSE(RunWorkload(*w, options).ok());
}

TEST(RunTest, QualityMetricsIndependentOfThreads) {
  for (const char* name : {"cifarnet-reuse-2t", "alexnet-cr-1t"}) {
    const RunResult one = MustRun(name, 20, /*trace=*/true, 1);
    const RunResult two = MustRun(name, 20, /*trace=*/true, 2);
    EXPECT_EQ(one.final_loss, two.final_loss) << name;
    EXPECT_EQ(one.eval_accuracy, two.eval_accuracy) << name;
    EXPECT_EQ(one.failed, 0) << name;
    EXPECT_EQ(two.failed, 0) << name;
  }
}

}  // namespace
}  // namespace adr::stepbench
