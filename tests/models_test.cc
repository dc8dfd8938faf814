// Tests for the model builders: geometry against the paper's Table II,
// forward shapes, validation, weight copying, and the first layer's
// skipped input gradient.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "models/models.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

ModelOptions TinyOptions() {
  ModelOptions options;
  options.num_classes = 4;
  options.input_size = 32;
  options.width = 0.125;  // 64 -> 8 channels
  options.fc_width = 0.05;
  return options;
}

TEST(CifarNetTest, BuildsAndRunsForward) {
  auto model = BuildCifarNet(TinyOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->conv_layers.size(), 2u);
  EXPECT_TRUE(model->reuse_layers.empty());
  Rng rng(1);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 32, 32}), &rng);
  Tensor out = model->network.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({2, 4}));
}

TEST(CifarNetTest, FullSizeGeometryMatchesPaperTable2) {
  ModelOptions options;
  options.num_classes = 10;
  options.input_size = 32;
  auto model = BuildCifarNet(options);
  ASSERT_TRUE(model.ok());
  // K ranges 75 (conv1: 3*5*5) to 1600 (conv2: 64*5*5); M = 64.
  const Conv2dConfig& conv1 = model->conv_layers[0]->config();
  const Conv2dConfig& conv2 = model->conv_layers[1]->config();
  EXPECT_EQ(conv1.in_channels * conv1.kernel * conv1.kernel, 75);
  EXPECT_EQ(conv2.in_channels * conv2.kernel * conv2.kernel, 1600);
  EXPECT_EQ(conv1.out_channels, 64);
  EXPECT_EQ(conv2.out_channels, 64);
}

TEST(CifarNetTest, RejectsBadInputSize) {
  ModelOptions options = TinyOptions();
  options.input_size = 30;  // not divisible by 4
  EXPECT_FALSE(BuildCifarNet(options).ok());
  options.input_size = 4;  // too small
  EXPECT_FALSE(BuildCifarNet(options).ok());
}

TEST(AlexNetTest, FullSizeGeometryMatchesPaperTable2) {
  ModelOptions options;
  options.num_classes = 100;
  options.input_size = 227;
  auto model = BuildAlexNet(options);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(model->conv_layers.size(), 5u);
  // K: conv1 = 3*11*11 = 363 ... conv4/5 = 384*3*3 = 3456; M: 64..384.
  const auto k_of = [&](size_t i) {
    const Conv2dConfig& c = model->conv_layers[i]->config();
    return c.in_channels * c.kernel * c.kernel;
  };
  EXPECT_EQ(k_of(0), 363);
  EXPECT_EQ(k_of(4), 3456);
  EXPECT_EQ(model->conv_layers[0]->config().out_channels, 64);
  EXPECT_EQ(model->conv_layers[3]->config().out_channels, 384);
}

TEST(AlexNetTest, ScaledVariantRunsForward) {
  ModelOptions options;
  options.num_classes = 4;
  options.input_size = 67;
  options.width = 0.125;
  options.fc_width = 0.01;
  auto model = BuildAlexNet(options);
  ASSERT_TRUE(model.ok());
  Rng rng(2);
  Tensor in = Tensor::RandomGaussian(Shape({1, 3, 67, 67}), &rng);
  Tensor out = model->network.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 4}));
}

TEST(AlexNetTest, RejectsIncompatibleInputSize) {
  ModelOptions options = TinyOptions();
  options.input_size = 64;  // (64-11) % 4 != 0
  EXPECT_FALSE(BuildAlexNet(options).ok());
}

TEST(Vgg19Test, Has16ConvLayers) {
  ModelOptions options;
  options.num_classes = 4;
  options.input_size = 32;
  options.width = 0.0625;
  options.fc_width = 0.01;
  auto model = BuildVgg19(options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->conv_layers.size(), 16u);
  Rng rng(3);
  Tensor in = Tensor::RandomGaussian(Shape({1, 3, 32, 32}), &rng);
  Tensor out = model->network.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 4}));
}

TEST(Vgg19Test, FullSizeGeometryMatchesPaperTable2) {
  ModelOptions options;
  options.num_classes = 100;
  options.input_size = 224;
  auto model = BuildVgg19(options);
  ASSERT_TRUE(model.ok());
  const Conv2dConfig& first = model->conv_layers.front()->config();
  const Conv2dConfig& last = model->conv_layers.back()->config();
  EXPECT_EQ(first.in_channels * first.kernel * first.kernel, 27);
  EXPECT_EQ(last.in_channels * last.kernel * last.kernel, 4608);
  EXPECT_EQ(first.out_channels, 64);
  EXPECT_EQ(last.out_channels, 512);
}

TEST(Vgg19Test, RejectsBadInputSize) {
  ModelOptions options = TinyOptions();
  options.input_size = 48;  // not divisible by 32
  EXPECT_FALSE(BuildVgg19(options).ok());
}

TEST(BuildModelTest, DispatchesByName) {
  EXPECT_TRUE(BuildModel("cifarnet", TinyOptions()).ok());
  EXPECT_FALSE(BuildModel("resnet50", TinyOptions()).ok());
  EXPECT_EQ(BuildModel("resnet50", TinyOptions()).status().code(),
            StatusCode::kNotFound);
}

TEST(BuildModelTest, ReuseModeBuildsReuseLayers) {
  ModelOptions options = TinyOptions();
  options.use_reuse = true;
  options.reuse.num_hashes = 8;
  auto model = BuildModel("cifarnet", options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->reuse_layers.size(), 2u);
  EXPECT_TRUE(model->conv_layers.empty());
  Rng rng(4);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 32, 32}), &rng);
  Tensor out = model->network.Forward(in, true);
  EXPECT_EQ(out.shape(), Shape({2, 4}));
}

TEST(BuildModelTest, NetworkCollectsReuseStats) {
  ModelOptions options = TinyOptions();
  options.use_reuse = true;
  options.reuse.num_hashes = 8;
  auto model = BuildModel("cifarnet", options);
  ASSERT_TRUE(model.ok());

  // Before any forward pass: one entry per reuse layer, all zeroed.
  auto stats = model->network.CollectReuseStats();
  ASSERT_EQ(stats.size(), model->reuse_layers.size());
  for (const auto& [name, s] : stats) EXPECT_EQ(s.forward_calls, 0);

  Rng rng(4);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 32, 32}), &rng);
  model->network.Forward(in, true);
  stats = model->network.CollectReuseStats();
  for (size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].first, model->reuse_layers[i]->name());
    EXPECT_EQ(stats[i].second.forward_calls, 1);
    EXPECT_GT(stats[i].second.macs_baseline, 0.0);
  }

  model->network.ResetReuseStats();
  for (const auto& [name, s] : model->network.CollectReuseStats()) {
    EXPECT_EQ(s.forward_calls, 0);
    EXPECT_EQ(s.macs_baseline, 0.0);
  }

  // Dense models expose no reuse telemetry.
  auto dense = BuildModel("cifarnet", TinyOptions());
  ASSERT_TRUE(dense.ok());
  EXPECT_TRUE(dense->network.CollectReuseStats().empty());
}

TEST(BuildModelTest, ReuseConfigClampedPerLayer) {
  ModelOptions options = TinyOptions();
  options.use_reuse = true;
  options.reuse.sub_vector_length = 100000;  // clamped to each layer's K
  options.reuse.num_hashes = 8;
  auto model = BuildModel("cifarnet", options);
  ASSERT_TRUE(model.ok());
  for (ReuseConv2d* layer : model->reuse_layers) {
    EXPECT_LE(layer->reuse_config().sub_vector_length,
              layer->unfolded_cols());
  }
}

TEST(CopyWeightsTest, BaselineToReuseProducesSameOutput) {
  ModelOptions options = TinyOptions();
  auto baseline = BuildCifarNet(options);
  ASSERT_TRUE(baseline.ok());
  ModelOptions reuse_options = options;
  reuse_options.use_reuse = true;
  reuse_options.reuse.num_hashes = 96;  // near-exact clustering
  reuse_options.seed = 777;             // different init, then overwritten
  auto reuse = BuildCifarNet(reuse_options);
  ASSERT_TRUE(reuse.ok());
  ASSERT_TRUE(CopyWeights(*baseline, &*reuse).ok());

  Rng rng(5);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 32, 32}), &rng);
  Tensor expected = baseline->network.Forward(in, false);
  Tensor actual = reuse->network.Forward(in, false);
  EXPECT_LT(MaxAbsDiff(actual, expected), 0.05f);
}

TEST(CopyWeightsTest, RejectsMismatchedModels) {
  auto a = BuildCifarNet(TinyOptions());
  ModelOptions bigger = TinyOptions();
  bigger.width = 0.25;
  auto b = BuildCifarNet(bigger);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(CopyWeights(*a, &*b).ok());
}

TEST(ModelTest, ValidatesCommonOptions) {
  ModelOptions options = TinyOptions();
  options.num_classes = 1;
  EXPECT_FALSE(BuildCifarNet(options).ok());
  options = TinyOptions();
  options.width = 0.0;
  EXPECT_FALSE(BuildCifarNet(options).ok());
}

TEST(ModelTest, NetworkMacsPositive) {
  auto model = BuildCifarNet(TinyOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->network.ForwardMacs(8), 0.0);
  EXPECT_GT(model->network.NumParameters(), 0);
}

// A Network-built model skips its first conv's input gradient. Its
// parameter gradients must be the bits of a twin that computes it, on
// the dense path, the reuse path, and the reuse path with the cluster
// cache, whose second step (on the same images) hits the entries of the
// first.
enum class ConvPath { kDense, kReuse, kReuseCache };

class FirstLayerInputGradTest : public ::testing::TestWithParam<ConvPath> {};

TEST_P(FirstLayerInputGradTest, SkippedWithBitwiseEqualParameterGradients) {
  ModelOptions options = TinyOptions();
  options.use_reuse = GetParam() != ConvPath::kDense;
  options.reuse.sub_vector_length = 25;
  options.reuse.num_hashes = 8;
  options.reuse.cluster_reuse = GetParam() == ConvPath::kReuseCache;
  auto skip = BuildCifarNet(options);
  auto full = BuildCifarNet(options);
  ASSERT_TRUE(skip.ok());
  ASSERT_TRUE(full.ok());
  Layer* conv1 = skip->network.layer(0);
  EXPECT_FALSE(conv1->needs_input_grad());
  EXPECT_TRUE(skip->network.layer(1)->needs_input_grad());
  full->network.layer(0)->set_needs_input_grad(true);

  Rng rng(9);
  const std::vector<int> labels = {0, 1, 2, 3};
  const auto step = [&](Network* net, const Tensor& images) {
    const LossResult loss =
        SoftmaxCrossEntropy(net->Forward(images, /*training=*/true), labels);
    return net->Backward(loss.grad_logits);
  };
  const Tensor images = Tensor::RandomGaussian(Shape({4, 3, 32, 32}), &rng);
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(step(&skip->network, images).shape(), Shape({}));
    EXPECT_EQ(step(&full->network, images).shape(), images.shape());
    const std::vector<Tensor*> skipped = skip->network.Gradients();
    const std::vector<Tensor*> computed = full->network.Gradients();
    ASSERT_EQ(skipped.size(), computed.size());
    for (size_t i = 0; i < skipped.size(); ++i) {
      ASSERT_EQ(skipped[i]->shape(), computed[i]->shape());
      EXPECT_EQ(std::memcmp(skipped[i]->data(), computed[i]->data(),
                            sizeof(float) * static_cast<size_t>(
                                                skipped[i]->num_elements())),
                0)
          << "gradient " << i << " at step " << s;
    }
  }

  // MACs follow what ran: conv1's backward is dW alone, NKM executed
  // against an NKM baseline, where the twin's adds dX to both.
  if (GetParam() == ConvPath::kDense) return;
  const double nkm = conv1->ForwardMacs(4);
  const ReuseLayerStats& without_dx = *conv1->GetReuseStats();
  const ReuseLayerStats& with_dx = *full->network.layer(0)->GetReuseStats();
  EXPECT_EQ(without_dx.macs_baseline, 2 * (nkm + nkm));
  EXPECT_EQ(with_dx.macs_baseline, 2 * (nkm + 2 * nkm));
  EXPECT_LT(without_dx.macs_executed, with_dx.macs_executed);
  if (GetParam() == ConvPath::kReuseCache) {
    EXPECT_GT(without_dx.clusters_reused, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, FirstLayerInputGradTest,
                         ::testing::Values(ConvPath::kDense, ConvPath::kReuse,
                                           ConvPath::kReuseCache),
                         [](const ::testing::TestParamInfo<ConvPath>& info) {
                           switch (info.param) {
                             case ConvPath::kDense:
                               return "Dense";
                             case ConvPath::kReuse:
                               return "Reuse";
                             case ConvPath::kReuseCache:
                               return "ReuseCache";
                           }
                           return "?";
                         });

}  // namespace
}  // namespace adr
