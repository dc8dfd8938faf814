// Tests for the reuse extensions: the per-layer enabled switch and the
// controller's exact landing stage.

#include <gtest/gtest.h>

#include "core/adaptive_controller.h"
#include "core/reuse_conv2d.h"
#include "nn/conv2d.h"
#include "util/rng.h"

namespace adr {
namespace {

Conv2dConfig SmallConv() {
  Conv2dConfig config;
  config.in_channels = 2;
  config.out_channels = 4;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 6;
  config.in_width = 6;
  return config;
}

TEST(ReuseDisabledTest, MacsCountedAsBaseline) {
  Rng rng(5);
  ReuseConfig off;
  off.enabled = false;
  off.sub_vector_length = 9;
  off.num_hashes = 4;
  ReuseConv2d layer("conv", SmallConv(), off, &rng);
  Rng data_rng(6);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  layer.Forward(in, true);
  layer.Forward(in, true);
  EXPECT_DOUBLE_EQ(layer.GetReuseStats()->macs_executed,
                   layer.GetReuseStats()->macs_baseline);
  EXPECT_DOUBLE_EQ(layer.GetReuseStats()->MacsSavedFraction(), 0.0);
  // A dense forward keeps every row: r_c = 1, not 0.
  EXPECT_EQ(layer.GetReuseStats()->forward_calls, 2);
  EXPECT_DOUBLE_EQ(layer.GetReuseStats()->avg_remaining_ratio, 1.0);

  // Dense -> LSH: the running mean weighs the two dense calls at r_c = 1
  // against the LSH call's own r_c (read off a twin layer with the same
  // families).
  ReuseConfig on = off;
  on.enabled = true;
  Rng twin_rng(5);
  ReuseConv2d twin("conv", SmallConv(), on, &twin_rng);
  twin.Forward(in, true);
  const double lsh_rc = twin.GetReuseStats()->avg_remaining_ratio;
  ASSERT_LT(lsh_rc, 1.0);
  ASSERT_TRUE(layer.SetReuseConfig(on).ok());
  layer.Forward(in, true);
  EXPECT_EQ(layer.GetReuseStats()->forward_calls, 3);
  EXPECT_DOUBLE_EQ(layer.GetReuseStats()->avg_remaining_ratio,
                   (2.0 + lsh_rc) / 3.0);
}

std::unique_ptr<ReuseConv2d> MakeLayer(Rng* rng) {
  ReuseConfig reuse;
  reuse.num_hashes = 8;
  Conv2dConfig conv;
  conv.in_channels = 3;
  conv.out_channels = 8;
  conv.kernel = 3;
  conv.stride = 1;
  conv.pad = 1;
  conv.in_height = 8;
  conv.in_width = 8;
  return std::make_unique<ReuseConv2d>("conv1", conv, reuse, rng);
}

TEST(FinalExactStageTest, LastStageDisablesReuse) {
  Rng rng(11);
  auto layer = MakeLayer(&rng);
  AdaptiveOptions options;
  options.plateau_window = 1;
  options.min_steps_per_stage = 1;
  options.final_exact_stage = true;
  AdaptiveController controller({layer.get()}, 4, options);
  ASSERT_TRUE(controller.Init().ok());
  EXPECT_TRUE(layer->reuse_config().enabled);
  while (!controller.Exhausted()) {
    controller.Step(1.0, 0.2, [&]() { return 0.9; });
  }
  EXPECT_FALSE(layer->reuse_config().enabled);
}

TEST(FinalExactStageTest, DisabledOptionKeepsReuseOn) {
  Rng rng(12);
  auto layer = MakeLayer(&rng);
  AdaptiveOptions options;
  options.plateau_window = 1;
  options.min_steps_per_stage = 1;
  options.final_exact_stage = false;
  AdaptiveController controller({layer.get()}, 4, options);
  ASSERT_TRUE(controller.Init().ok());
  while (!controller.Exhausted()) {
    controller.Step(1.0, 0.2, [&]() { return 0.9; });
  }
  EXPECT_TRUE(layer->reuse_config().enabled);
  // And it ends on its most precise candidate.
  const LhCandidate& last = controller.CurrentCandidate(0);
  EXPECT_EQ(layer->reuse_config().sub_vector_length, last.l);
  EXPECT_EQ(layer->reuse_config().num_hashes, last.h);
}

TEST(FinalExactStageTest, AddsExactlyOneStage) {
  Rng rng(13);
  auto with_layer = MakeLayer(&rng);
  auto without_layer = MakeLayer(&rng);
  AdaptiveOptions with_exact;
  with_exact.final_exact_stage = true;
  AdaptiveOptions without_exact;
  without_exact.final_exact_stage = false;
  AdaptiveController with({with_layer.get()}, 4, with_exact);
  AdaptiveController without({without_layer.get()}, 4, without_exact);
  ASSERT_TRUE(with.Init().ok());
  ASSERT_TRUE(without.Init().ok());
  EXPECT_EQ(with.num_stages(), without.num_stages() + 1);
}

}  // namespace
}  // namespace adr
