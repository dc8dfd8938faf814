// Strategy 2 end to end: train CifarNet under the adaptive {L, H}
// schedule and compare against the dense baseline — the paper's headline
// use case (Section V-A / Table IV).
//
// Usage: ./build/examples/train_adaptive [--model cifarnet|alexnet|vgg19]
//                                        [--threads T]
//                                        [--metrics-out m.json]
//                                        [--trace-out t.json]

#include <cstdio>
#include <cstring>

#include "core/strategies.h"
#include "data/synthetic_images.h"
#include "util/flags.h"
#include "util/metrics_registry.h"
#include "util/parallel.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  using namespace adr;

  std::string model_name = "cifarnet";
  int64_t threads = 0;
  std::string metrics_out;
  std::string trace_out;
  FlagSet flags;
  flags.AddString("model", &model_name, "cifarnet, alexnet, or vgg19");
  flags.AddInt64("threads", &threads,
                 "worker threads (0 = ADR_THREADS or hardware concurrency)");
  flags.AddString("metrics-out", &metrics_out,
                  "write a MetricsRegistry JSON dump to this path");
  flags.AddString("trace-out", &trace_out,
                  "write a Chrome/Perfetto trace JSON to this path");
  if (const Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (threads < 0 || threads > ThreadPool::kMaxThreads) {
    std::fprintf(stderr, "--threads must be in [0, %d]\n%s",
                 ThreadPool::kMaxThreads, flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (threads > 0) ThreadPool::SetGlobalThreads(static_cast<int>(threads));
  std::printf("using %d thread(s)\n", ThreadPool::GlobalThreads());
  if (!trace_out.empty()) {
    Tracer::Global().SetCurrentThreadName("main");
    Tracer::Global().SetEnabled(true);
  }

  SyntheticImageConfig data_config = SyntheticImageConfig::CifarLike(
      /*num_samples=*/512, /*seed=*/11);
  data_config.num_classes = 4;
  ModelOptions model_options;
  model_options.num_classes = 4;
  model_options.fc_width = 0.1;

  if (model_name == "cifarnet") {
    data_config.height = data_config.width = 16;
    model_options.input_size = 16;
    model_options.width = 0.25;
  } else if (model_name == "alexnet") {
    data_config.height = data_config.width = 67;
    data_config.max_translation = 6;
    data_config.num_samples = 256;
    model_options.input_size = 67;
    model_options.width = 0.125;
    model_options.fc_width = 0.02;
  } else if (model_name == "vgg19") {
    data_config.height = data_config.width = 32;
    data_config.num_samples = 256;
    model_options.input_size = 32;
    model_options.width = 0.125;
    model_options.fc_width = 0.01;
  } else {
    std::fprintf(stderr, "unknown model %s\n", model_name.c_str());
    return 1;
  }

  auto dataset = SyntheticImageDataset::Create(data_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  TrainingRunOptions run;
  run.batch_size = 16;
  run.learning_rate = 0.002f;
  run.target_accuracy = 0.9;
  run.max_steps = 400;
  run.eval_every = 20;
  run.eval_samples = 128;
  if (model_name != "cifarnet") {
    run.batch_size = 8;
    run.target_accuracy = 0.85;
    run.max_steps = 250;
    run.eval_samples = 64;
  }

  std::printf("=== %s: dense baseline ===\n", model_name.c_str());
  auto baseline = RunTrainingStrategy(StrategyKind::kBaseline, model_name,
                                      model_options, *dataset, run);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 1;
  }
  std::printf("steps %lld  time %.2fs  accuracy %.3f\n\n",
              static_cast<long long>(baseline->steps_run),
              baseline->wall_seconds, baseline->final_accuracy);

  std::printf("=== %s: Strategy 2 (adaptive deep reuse) ===\n",
              model_name.c_str());
  auto adaptive = RunTrainingStrategy(StrategyKind::kAdaptive, model_name,
                                      model_options, *dataset, run);
  if (!adaptive.ok()) {
    std::fprintf(stderr, "%s\n", adaptive.status().ToString().c_str());
    return 1;
  }
  std::printf("steps %lld  time %.2fs  accuracy %.3f  stages %d\n",
              static_cast<long long>(adaptive->steps_run),
              adaptive->wall_seconds, adaptive->final_accuracy,
              adaptive->stages_used);
  std::printf("conv MACs saved: %.1f%%\n",
              adaptive->MacsSavedFraction() * 100.0);
  if (baseline->wall_seconds > 0.0) {
    std::printf("training time saved: %.1f%%\n",
                (1.0 - adaptive->wall_seconds / baseline->wall_seconds) *
                    100.0);
  }

  std::printf("\naccuracy trace (step, accuracy):\n");
  for (const auto& [step, accuracy] : adaptive->eval_history) {
    std::printf("  %4lld  %.3f\n", static_cast<long long>(step), accuracy);
  }

  if (!metrics_out.empty()) {
    if (const Status status =
            MetricsRegistry::Global().WriteJsonFile(metrics_out);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    Tracer::Global().SetEnabled(false);
    if (const Status status = Tracer::Global().WriteJsonFile(trace_out);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}
