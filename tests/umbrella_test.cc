// Compile check for the umbrella header plus a miniature end-to-end use
// of the public API exactly as README documents it.

#include "src/adr.h"

#include <gtest/gtest.h>

namespace adr {
namespace {

TEST(UmbrellaTest, ReadmeQuickstartCompilesAndRuns) {
  SyntheticImageConfig data_config = SyntheticImageConfig::CifarLike(64, 1);
  data_config.num_classes = 4;
  data_config.height = data_config.width = 16;
  auto dataset = SyntheticImageDataset::Create(data_config);
  ASSERT_TRUE(dataset.ok());

  ModelOptions options;
  options.num_classes = 4;
  options.input_size = 16;
  options.width = 0.125;
  options.fc_width = 0.05;
  options.use_reuse = true;
  options.reuse.sub_vector_length = 25;
  options.reuse.num_hashes = 12;
  options.reuse.cluster_reuse = false;
  auto model = BuildCifarNet(options);
  ASSERT_TRUE(model.ok());

  DataLoader loader(&*dataset, 16, true, 2);
  Adam optimizer(0.002f);
  Batch batch;
  loader.Next(&batch);
  const StepResult result = TrainStep(&model->network, &optimizer, batch);
  EXPECT_GT(result.loss, 0.0);

  for (ReuseConv2d* layer : model->reuse_layers) {
    EXPECT_GE(layer->GetReuseStats()->avg_remaining_ratio, 0.0);
  }
}

}  // namespace
}  // namespace adr
