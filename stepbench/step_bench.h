// Closed-loop training-step benchmark: dense vs reuse vs cluster-reuse.
//
// Each workload trains one scaled Table IV network on synthetic data made
// from the workload seed. The benchmark calls every layer's Forward/Backward,
// SoftmaxCrossEntropy, Optimizer::Step and DataLoader::Next itself, so a
// traced run can time each public call from outside the library. See
// README.md in this directory for the workloads and the metric map.

#ifndef ADR_STEPBENCH_STEP_BENCH_H_
#define ADR_STEPBENCH_STEP_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic_images.h"
#include "models/models.h"
#include "util/result.h"

namespace adr::stepbench {

/// \brief One benchmark workload. A run trains `episodes` independent
/// episodes, each from its own seeds (dataset, init, shuffle, LSH) derived
/// from the workload seed, and pools them: averaging over several drawn
/// datasets keeps run-to-run spread across seeds small.
struct Workload {
  uint64_t seed = 0;
  std::string model;  ///< BuildModel name
  ModelOptions model_options;
  SyntheticImageConfig data;  ///< training set
  int64_t eval_samples = 0;   ///< held-out samples after the training set
  int64_t batch_size = 0;
  int threads = 1;
  float learning_rate = 0.002f;
  uint64_t shuffle_seed = 0;
  int episodes = 1;
  /// Timed steps of one episode, each episode starting from a fresh setup.
  int64_t episode_steps = 0;
};

/// \brief Names of every workload this benchmark can run. BENCHMARK.json lists
/// the ones steady enough to gate changes; README.md says why
/// cifarnet-reuse-2t is not among them.
std::vector<std::string> WorkloadNames();

/// \brief The named workload for a seed. NotFound for an unknown name.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// \brief `w` with episode `episode`'s dataset, init, shuffle and LSH
/// seeds, all derived from w.seed.
Workload ForEpisode(const Workload& w, int episode);

struct RunOptions {
  bool trace = false;  ///< per-layer run instead of end-to-end
  /// Chrome/Perfetto trace file written by a traced run ("" = none).
  std::string trace_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;  ///< training steps run (warm-ups included)
  int64_t failed = 0;     ///< non-finite or mismatched-loss steps
  std::vector<std::string> errors;
  /// Means over the episodes; deterministic per seed at any thread count.
  double final_loss = 0.0;
  double eval_accuracy = 0.0;
  double peak_rss_mb = 0.0;  ///< process peak over the whole run
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable per-span self-time table (traced run only).
  std::string self_time_table;
};

/// \brief Sets up, trains and measures one workload: one pass through its
/// episodes, a fixed amount of work, so machine speed never changes what
/// is trained.
Result<RunResult> RunWorkload(const Workload& workload,
                              const RunOptions& options);

/// \brief Nearest-rank percentile q in (0, 1) of `samples`. Refused
/// (FailedPrecondition) unless at least ten samples lie beyond it, so the
/// reported tail is backed by data: p90 needs >= 100 samples.
Result<double> TailPercentile(std::vector<double> samples, double q);

/// \brief Median (mean of the middle pair for even counts); 0 when empty.
double Median(std::vector<double> samples);

/// \brief True when `name` is non-empty and made of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);

/// \brief The result line: {"correct", "attempted", "failed", "metrics"}
/// with every value printed at full precision.
std::string ResultJson(const RunResult& result);

}  // namespace adr::stepbench

#endif  // ADR_STEPBENCH_STEP_BENCH_H_
