// Integration tests: the four training drivers on a small synthetic task.
// These exercise the full stack (data -> model -> reuse layers -> adaptive
// control -> optimizer) end to end.

#include <gtest/gtest.h>

#include "core/strategies.h"
#include "data/synthetic_images.h"

namespace adr {
namespace {

class StrategiesTest : public ::testing::Test {
 protected:
  static SyntheticImageDataset MakeDataset() {
    SyntheticImageConfig config;
    config.num_classes = 4;
    config.num_samples = 256;
    config.channels = 3;
    config.height = 16;
    config.width = 16;
    config.structured_noise = 0.15f;
    config.white_noise = 0.02f;
    config.seed = 11;
    return *SyntheticImageDataset::Create(config);
  }

  static ModelOptions SmallModel() {
    ModelOptions options;
    options.num_classes = 4;
    options.input_size = 16;
    options.width = 0.25;  // 16-channel CifarNet
    options.fc_width = 0.1;
    options.seed = 5;
    return options;
  }

  static TrainingRunOptions FastRun() {
    TrainingRunOptions options;
    options.batch_size = 16;
    options.learning_rate = 0.002f;
    options.target_accuracy = 0.9;
    options.max_steps = 220;
    options.eval_every = 20;
    options.eval_samples = 128;
    options.fixed_reuse.sub_vector_length = 25;
    options.fixed_reuse.num_hashes = 10;
    options.adaptive.plateau_window = 5;
    options.adaptive.min_steps_per_stage = 10;
    options.seed = 21;
    return options;
  }
};

TEST_F(StrategiesTest, BaselineLearnsTheTask) {
  const SyntheticImageDataset dataset = MakeDataset();
  auto result = RunTrainingStrategy(StrategyKind::kBaseline, "cifarnet",
                                    SmallModel(), dataset, FastRun());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_accuracy, 0.6);
  EXPECT_GT(result->steps_run, 0);
  EXPECT_DOUBLE_EQ(result->MacsSavedFraction(), 0.0);
  EXPECT_FALSE(result->loss_history.empty());
  EXPECT_FALSE(result->eval_history.empty());
}

// The baseline counts the conv MACs that run: per step the forward and
// dW of every conv, and dX of all but the first, whose input gradient
// feeds nothing; per eval batch the forward.
TEST_F(StrategiesTest, BaselineCountsNoInputGradientForTheFirstConv) {
  const SyntheticImageDataset dataset = MakeDataset();
  TrainingRunOptions options = FastRun();
  options.max_steps = 3;
  options.eval_every = 3;
  options.target_accuracy = 2.0;  // never reached: all 3 steps run
  auto result = RunTrainingStrategy(StrategyKind::kBaseline, "cifarnet",
                                    SmallModel(), dataset, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps_run, 3);
  auto model = BuildModel("cifarnet", SmallModel());
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->conv_layers.size(), 2u);
  const double conv1 = model->conv_layers[0]->ForwardMacs(options.batch_size);
  const double conv2 = model->conv_layers[1]->ForwardMacs(options.batch_size);
  const double eval_batches = options.eval_samples / options.batch_size;
  EXPECT_DOUBLE_EQ(result->conv_macs_executed,
                   3 * (2 * conv1 + 3 * conv2) +
                       eval_batches * (conv1 + conv2));
  EXPECT_DOUBLE_EQ(result->conv_macs_baseline, result->conv_macs_executed);
}

TEST_F(StrategiesTest, Strategy1FixedReuseLearnsAndSaves) {
  const SyntheticImageDataset dataset = MakeDataset();
  auto result = RunTrainingStrategy(StrategyKind::kFixed, "cifarnet",
                                    SmallModel(), dataset, FastRun());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_accuracy, 0.5);
  EXPECT_GT(result->MacsSavedFraction(), 0.0);
  EXPECT_LT(result->conv_macs_executed, result->conv_macs_baseline);
}

TEST_F(StrategiesTest, Strategy2AdaptiveLearnsAndSavesMore) {
  const SyntheticImageDataset dataset = MakeDataset();
  auto s2 = RunTrainingStrategy(StrategyKind::kAdaptive, "cifarnet",
                                SmallModel(), dataset, FastRun());
  ASSERT_TRUE(s2.ok());
  EXPECT_GT(s2->final_accuracy, 0.5);
  EXPECT_GT(s2->MacsSavedFraction(), 0.0);
}

TEST_F(StrategiesTest, Strategy3ClusterReuseTogglesOff) {
  const SyntheticImageDataset dataset = MakeDataset();
  TrainingRunOptions options = FastRun();
  options.adaptive.plateau_window = 4;
  auto result = RunTrainingStrategy(StrategyKind::kClusterReuse, "cifarnet",
                                    SmallModel(), dataset, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->final_accuracy, 0.4);
  EXPECT_GT(result->MacsSavedFraction(), 0.0);
}

TEST_F(StrategiesTest, RejectsBadOptions) {
  const SyntheticImageDataset dataset = MakeDataset();
  TrainingRunOptions bad = FastRun();
  bad.batch_size = 0;
  EXPECT_FALSE(RunTrainingStrategy(StrategyKind::kBaseline, "cifarnet",
                                   SmallModel(), dataset, bad)
                   .ok());
  bad = FastRun();
  bad.max_steps = 0;
  EXPECT_FALSE(RunTrainingStrategy(StrategyKind::kBaseline, "cifarnet",
                                   SmallModel(), dataset, bad)
                   .ok());
}

TEST_F(StrategiesTest, RejectsUnknownModel) {
  const SyntheticImageDataset dataset = MakeDataset();
  EXPECT_FALSE(RunTrainingStrategy(StrategyKind::kBaseline, "lenet",
                                   SmallModel(), dataset, FastRun())
                   .ok());
}

TEST_F(StrategiesTest, StrategyNames) {
  EXPECT_EQ(StrategyKindToString(StrategyKind::kBaseline), "baseline");
  EXPECT_EQ(StrategyKindToString(StrategyKind::kFixed), "strategy1-fixed");
  EXPECT_EQ(StrategyKindToString(StrategyKind::kAdaptive),
            "strategy2-adaptive");
  EXPECT_EQ(StrategyKindToString(StrategyKind::kClusterReuse),
            "strategy3-cluster-reuse");
}

}  // namespace
}  // namespace adr
