// Train dense, checkpoint, restore into a reuse-enabled twin, and compare
// inference cost — the deployment story: models trained anywhere can be
// served (or fine-tuned) with deep reuse by loading their checkpoint.
//
// Usage: ./build/examples/checkpoint_reuse [--steps N] [--l L] [--h H]
//                                          [--threads T]

#include <cstdio>

#include "core/reuse_config.h"
#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "models/models.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "util/flags.h"
#include "util/parallel.h"

int main(int argc, char** argv) {
  using namespace adr;

  int64_t steps = 200;
  int64_t l = 25;
  int64_t h = 8;
  int64_t threads = 0;
  FlagSet flags;
  flags.AddInt64("steps", &steps, "training steps for the dense model");
  flags.AddInt64("l", &l, "sub-vector length L for the reuse twin");
  flags.AddInt64("h", &h, "hash count H for the reuse twin");
  flags.AddInt64("threads", &threads,
                 "worker threads (0 = ADR_THREADS or hardware concurrency)");
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

  SyntheticImageConfig data_config =
      SyntheticImageConfig::CifarLike(512, 3);
  data_config.num_classes = 4;
  data_config.height = data_config.width = 16;
  auto dataset = SyntheticImageDataset::Create(data_config);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  ModelOptions options;
  options.num_classes = 4;
  options.input_size = 16;
  options.width = 0.25;
  options.fc_width = 0.1;
  auto dense = BuildCifarNet(options);
  if (!dense.ok()) {
    std::fprintf(stderr, "%s\n", dense.status().ToString().c_str());
    return 1;
  }

  // 1. Train the dense model.
  DataLoader loader(&*dataset, 16, true, 5);
  Adam optimizer(0.002f);
  Batch batch;
  for (int64_t step = 0; step < steps; ++step) {
    loader.Next(&batch);
    TrainStep(&dense->network, &optimizer, batch);
  }
  const double dense_accuracy =
      EvaluateAccuracy(&dense->network, *dataset, 16, 256);
  std::printf("dense model trained: accuracy %.3f\n", dense_accuracy);

  // 2. Checkpoint it.
  const std::string path = "/tmp/adr_checkpoint_example.ckpt";
  if (const Status status = SaveCheckpoint(dense->network, path);
      !status.ok()) {
    std::fprintf(stderr, "save: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", path.c_str());

  // 3. Restore into a reuse twin and compare.
  ModelOptions reuse_options = options;
  reuse_options.use_reuse = true;
  auto reuse_config = ReuseConfigBuilder()
                          .SubVectorLength(l)
                          .NumHashes(static_cast<int>(h))
                          .Build();
  if (!reuse_config.ok()) {
    std::fprintf(stderr, "reuse config: %s\n",
                 reuse_config.status().ToString().c_str());
    return 1;
  }
  reuse_options.reuse = *reuse_config;
  reuse_options.seed = 777;  // different init, fully overwritten by load
  auto reuse = BuildCifarNet(reuse_options);
  if (!reuse.ok()) {
    std::fprintf(stderr, "%s\n", reuse.status().ToString().c_str());
    return 1;
  }
  if (const Status status = LoadCheckpoint(path, &reuse->network);
      !status.ok()) {
    std::fprintf(stderr, "load: %s\n", status.ToString().c_str());
    return 1;
  }

  const double reuse_accuracy =
      EvaluateAccuracy(&reuse->network, *dataset, 16, 256);
  std::printf("\nreuse twin (L=%lld, H=%lld): accuracy %.3f "
              "(reuse-caused loss %.3f)\n",
              static_cast<long long>(l), static_cast<long long>(h),
              reuse_accuracy, dense_accuracy - reuse_accuracy);
  for (const auto& [name, stats] : reuse->network.CollectReuseStats()) {
    std::printf("  %-8s r_c %.3f, conv MACs saved %.1f%%\n", name.c_str(),
                stats.avg_remaining_ratio,
                stats.MacsSavedFraction() * 100.0);
  }
  return 0;
}
