// Inference-time reuse sweep: train a dense model once, then explore how
// the clustering knobs {L, H} trade accuracy against remaining computation
// on a single layer — the interactive version of the paper's Fig. 8.
//
// Usage: ./build/examples/inference_sweep [layer_index]

#include <cstdio>
#include <cstdlib>

#include "core/parameter_schedule.h"
#include "core/reuse_conv2d.h"
#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "models/models.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace {

using namespace adr;

Model TrainDense(const SyntheticImageDataset& dataset,
                 const ModelOptions& options) {
  auto model = BuildCifarNet(options);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    std::exit(1);
  }
  DataLoader loader(&dataset, 16, true, 3);
  Adam optimizer(0.002f);
  Batch batch;
  for (int step = 0; step < 250; ++step) {
    // Short warmup keeps the small net from collapsing.
    optimizer.set_learning_rate(step < 25 ? 0.0005f : 0.002f);
    loader.Next(&batch);
    TrainStep(&model->network, &optimizer, batch);
  }
  return std::move(*model);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adr;
  const size_t layer_index =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 1;

  SyntheticImageConfig data_config =
      SyntheticImageConfig::CifarLike(512, 5);
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
  Model dense = TrainDense(*dataset, options);
  const double dense_accuracy =
      EvaluateAccuracy(&dense.network, *dataset, 16, 256);
  std::printf("dense accuracy: %.3f\n\n", dense_accuracy);

  // Reuse twin with every layer exact except the one under study.
  ModelOptions reuse_options = options;
  reuse_options.use_reuse = true;
  reuse_options.reuse.enabled = false;
  auto twin = BuildCifarNet(reuse_options);
  if (!twin.ok() || !CopyWeights(dense, &*twin).ok()) {
    std::fprintf(stderr, "failed to build reuse twin\n");
    return 1;
  }
  if (layer_index >= twin->reuse_layers.size()) {
    std::fprintf(stderr, "layer_index out of range (have %zu)\n",
                 twin->reuse_layers.size());
    return 1;
  }
  ReuseConv2d* layer = twin->reuse_layers[layer_index];
  const int64_t k = layer->unfolded_cols();
  std::printf("sweeping %s (K = %lld)\n", layer->name().c_str(),
              static_cast<long long>(k));
  std::printf("%-8s %-6s %-10s %-10s %-12s\n", "L", "H", "r_c", "accuracy",
              "MACs saved");

  for (int64_t l : CandidateLValues(k, layer->config().kernel, k)) {
    for (int h : {4, 8, 16}) {
      auto config =
          ReuseConfigBuilder().SubVectorLength(l).NumHashes(h).Build(k);
      if (!config.ok()) continue;
      if (!layer->SetReuseConfig(*config).ok()) continue;
      layer->ResetReuseStats();
      const double accuracy =
          EvaluateAccuracy(&twin->network, *dataset, 16, 128);
      std::printf("%-8lld %-6d %-10.4f %-10.3f %-11.1f%%\n",
                  static_cast<long long>(l), h,
                  layer->GetReuseStats()->avg_remaining_ratio, accuracy,
                  layer->GetReuseStats()->MacsSavedFraction() * 100.0);
    }
  }
  std::printf(
      "\nReading the table: accuracy recovers as H grows; smaller L "
      "recovers accuracy at smaller r_c (the paper's Fig. 8 shape).\n");
  return 0;
}
