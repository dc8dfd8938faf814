// Layer tests: shapes, known values, and finite-difference gradient checks.

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "tests/gradient_check.h"
#include "tests/kernel_harness.h"
#include "util/rng.h"

namespace adr {
namespace {

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu("relu");
  Tensor in(Shape({4}), {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor out = relu.Forward(in, false);
  EXPECT_EQ(out.at(0), 0.0f);
  EXPECT_EQ(out.at(1), 0.0f);
  EXPECT_EQ(out.at(2), 2.0f);
  EXPECT_EQ(out.at(3), 0.0f);
}

TEST(ReluTest, BackwardMasksGradient) {
  Relu relu("relu");
  Tensor in(Shape({3}), {-1.0f, 1.0f, 2.0f});
  relu.Forward(in, false);
  Tensor grad(Shape({3}), {5.0f, 5.0f, 5.0f});
  Tensor gin = relu.Backward(grad);
  EXPECT_EQ(gin.at(0), 0.0f);
  EXPECT_EQ(gin.at(1), 5.0f);
  EXPECT_EQ(gin.at(2), 5.0f);
}

TEST(TanhTest, GradientCheck) {
  Tanh tanh_layer("tanh");
  Rng rng(1);
  Tensor in = Tensor::RandomGaussian(Shape({2, 5}), &rng);
  testutil::CheckGradients(&tanh_layer, in);
}

TEST(Conv2dTest, OutputShape) {
  Rng rng(2);
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 8;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 6;
  config.in_width = 6;
  Conv2d conv("conv", config, &rng);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 6, 6}), &rng);
  Tensor out = conv.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({2, 8, 6, 6}));
}

TEST(Conv2dTest, KnownConvolution) {
  // 1-channel 3x3 input, single 2x2 all-ones filter, no pad.
  Rng rng(3);
  Conv2dConfig config;
  config.in_channels = 1;
  config.out_channels = 1;
  config.kernel = 2;
  config.in_height = 3;
  config.in_width = 3;
  Conv2d conv("conv", config, &rng);
  conv.weight().Fill(1.0f);
  conv.bias().Fill(0.5f);
  Tensor in(Shape({1, 1, 3, 3}), {0, 1, 2, 3, 4, 5, 6, 7, 8});
  Tensor out = conv.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at(0), 0 + 1 + 3 + 4 + 0.5f);
  EXPECT_FLOAT_EQ(out.at(3), 4 + 5 + 7 + 8 + 0.5f);
}

TEST(Conv2dTest, GradientCheck) {
  Rng rng(4);
  Conv2dConfig config;
  config.in_channels = 2;
  config.out_channels = 3;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 5;
  config.in_width = 5;
  Conv2d conv("conv", config, &rng);
  Tensor in = Tensor::RandomGaussian(Shape({2, 2, 5, 5}), &rng);
  testutil::CheckGradients(&conv, in, /*tolerance=*/5e-2, /*epsilon=*/1e-3f,
                           /*seed=*/7, /*training=*/true);
}

TEST(Conv2dTest, StridedGradientCheck) {
  Rng rng(5);
  Conv2dConfig config;
  config.in_channels = 1;
  config.out_channels = 2;
  config.kernel = 3;
  config.stride = 2;
  config.pad = 0;
  config.in_height = 7;
  config.in_width = 7;
  Conv2d conv("conv", config, &rng);
  Tensor in = Tensor::RandomGaussian(Shape({1, 1, 7, 7}), &rng);
  testutil::CheckGradients(&conv, in, /*tolerance=*/5e-2, /*epsilon=*/1e-3f,
                           /*seed=*/7, /*training=*/true);
}

// The fused backward (dX rows computed tile by tile and folded straight
// into grad_input) against the unfused GemmTransB + Col2Im it replaces:
// same bits, on every backend. The shapes are CifarNet's conv1 and conv2
// at batch 32, a strided one with more images than the fused path's
// groups, one whose images span two row tiles, and one whose two-image
// groups have tiles that span images.
TEST(Conv2dTest, FusedBackwardMatchesGemmTransBThenCol2ImBitwise) {
  struct Case {
    Conv2dConfig config;
    int64_t batch;
  };
  const auto make = [](int64_t ic, int64_t oc, int64_t kernel, int64_t stride,
                       int64_t pad, int64_t size, int64_t batch) {
    Case c;
    c.config.in_channels = ic;
    c.config.out_channels = oc;
    c.config.kernel = kernel;
    c.config.stride = stride;
    c.config.pad = pad;
    c.config.in_height = size;
    c.config.in_width = size;
    c.batch = batch;
    return c;
  };
  const Case cases[] = {make(3, 32, 5, 1, 2, 32, 32),
                        make(32, 32, 5, 1, 2, 16, 32),
                        make(4, 6, 3, 2, 1, 9, 11),
                        make(32, 8, 5, 1, 2, 20, 3),
                        make(32, 8, 5, 1, 2, 18, 10)};
  for (const simd::Kernels* backend : testutil::Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const Case& c : cases) {
      Rng rng(8);
      Conv2d conv("conv", c.config, &rng);
      const ConvGeometry geo = conv.Geometry(c.batch);
      const int64_t n = geo.unfolded_rows(), k = geo.unfolded_cols();
      const int64_t m = c.config.out_channels;
      Tensor in = Tensor::RandomGaussian(
          Shape({c.batch, c.config.in_channels, c.config.in_height,
                 c.config.in_width}),
          &rng);
      Tensor grad_out = Tensor::RandomGaussian(
          Shape({c.batch, m, geo.out_height(), geo.out_width()}), &rng);
      conv.Forward(in, /*training=*/true);
      const Tensor fused = conv.Backward(grad_out);

      Tensor dy(Shape({n, m}));
      NchwToRows(grad_out, dy.data());
      Tensor dx_cols(Shape({n, k}));
      GemmTransB(dy.data(), conv.weight().data(), dx_cols.data(), n, m, k);
      Tensor expected(fused.shape());
      Col2Im(geo, dx_cols, &expected);
      ASSERT_EQ(fused.shape(), expected.shape());
      ASSERT_EQ(std::memcmp(fused.data(), expected.data(),
                            sizeof(float) *
                                static_cast<size_t>(fused.num_elements())),
                0)
          << backend->name << " K=" << k << " batch=" << c.batch;
    }
  }
}

TEST(Conv2dTest, ForwardMacs) {
  Rng rng(6);
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 4;
  config.kernel = 5;
  config.pad = 2;
  config.in_height = 8;
  config.in_width = 8;
  Conv2d conv("conv", config, &rng);
  // N = 2*8*8 = 128, K = 75, M = 4.
  EXPECT_DOUBLE_EQ(conv.ForwardMacs(2), 128.0 * 75.0 * 4.0);
}

TEST(RowsToNchwTest, RoundTrip) {
  Rng rng(7);
  Tensor nchw = Tensor::RandomGaussian(Shape({2, 3, 4, 5}), &rng);
  Tensor rows(Shape({2 * 4 * 5, 3}));
  NchwToRows(nchw, rows.data());
  Tensor back(nchw.shape());
  RowsToNchw(rows.data(), /*bias=*/nullptr, 2, 3, 4, 5, back.data());
  EXPECT_EQ(MaxAbsDiff(back, nchw), 0.0f);
}

TEST(MaxPoolTest, ForwardPicksMaxima) {
  MaxPool2d pool("pool", PoolConfig{2, 2});
  Tensor in(Shape({1, 1, 2, 4}), {1, 5, 2, 0, 3, 4, 8, 1});
  Tensor out = pool.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 1, 1, 2}));
  EXPECT_EQ(out.at(0), 5.0f);
  EXPECT_EQ(out.at(1), 8.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool("pool", PoolConfig{2, 2});
  Tensor in(Shape({1, 1, 2, 2}), {1, 5, 3, 4});
  pool.Forward(in, false);
  Tensor grad(Shape({1, 1, 1, 1}), {7.0f});
  Tensor gin = pool.Backward(grad);
  EXPECT_EQ(gin.at(0), 0.0f);
  EXPECT_EQ(gin.at(1), 7.0f);  // the max was at index 1
  EXPECT_EQ(gin.at(2), 0.0f);
  EXPECT_EQ(gin.at(3), 0.0f);
}

// A window with no value above -inf keeps its gradient in its own plane,
// at the window's first element, so backward chunks of planes stay
// disjoint.
TEST(MaxPoolTest, NonFiniteWindowRoutesToItsFirstElement) {
  MaxPool2d pool("pool", PoolConfig{2, 2});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  // Plane 0 is finite; plane 1 holds an all-NaN and an all--inf window.
  Tensor in(Shape({1, 2, 2, 4}),
            {1, 2, 3, 4, 5, 6, 7, 8, nan, nan, ninf, ninf, nan, nan, ninf,
             ninf});
  pool.Forward(in, false);
  Tensor grad(Shape({1, 2, 1, 2}), {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor gin = pool.Backward(grad);
  EXPECT_EQ(gin.at(5), 1.0f);
  EXPECT_EQ(gin.at(7), 2.0f);
  EXPECT_EQ(gin.at(8), 3.0f);   // plane 1, first element of window 0
  EXPECT_EQ(gin.at(10), 4.0f);  // plane 1, first element of window 1
  EXPECT_EQ(gin.at(0), 0.0f);
}

TEST(MaxPoolTest, OverlappingWindows) {
  MaxPool2d pool("pool", PoolConfig{3, 2});
  Rng rng(8);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 7, 7}), &rng);
  Tensor out = pool.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({1, 2, 3, 3}));
}

TEST(AvgPoolTest, ForwardAverages) {
  AvgPool2d pool("pool", PoolConfig{2, 2});
  Tensor in(Shape({1, 1, 2, 2}), {1, 2, 3, 4});
  Tensor out = pool.Forward(in, false);
  EXPECT_FLOAT_EQ(out.at(0), 2.5f);
}

TEST(AvgPoolTest, BackwardSpreadsUniformly) {
  AvgPool2d pool("pool", PoolConfig{2, 2});
  Tensor in(Shape({1, 1, 2, 2}), {1, 2, 3, 4});
  pool.Forward(in, false);
  Tensor grad(Shape({1, 1, 1, 1}), {8.0f});
  Tensor gin = pool.Backward(grad);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gin.at(i), 2.0f);
}

TEST(DenseTest, ForwardKnownValues) {
  Rng rng(9);
  Dense dense("fc", 2, 2, &rng);
  std::vector<Tensor*> params = dense.Parameters();
  *params[0] = Tensor(Shape({2, 2}), {1, 2, 3, 4});  // W
  *params[1] = Tensor(Shape({2}), {10, 20});         // b
  Tensor in(Shape({1, 2}), {1, 1});
  Tensor out = dense.Forward(in, false);
  EXPECT_FLOAT_EQ(out.at(0), 1 + 3 + 10);
  EXPECT_FLOAT_EQ(out.at(1), 2 + 4 + 20);
}

TEST(DenseTest, GradientCheck) {
  Rng rng(10);
  Dense dense("fc", 6, 4, &rng);
  Tensor in = Tensor::RandomGaussian(Shape({3, 6}), &rng);
  testutil::CheckGradients(&dense, in);
}

TEST(FlattenTest, RoundTrip) {
  Flatten flatten("flatten");
  Rng rng(11);
  Tensor in = Tensor::RandomGaussian(Shape({2, 3, 4, 4}), &rng);
  Tensor out = flatten.Forward(in, false);
  EXPECT_EQ(out.shape(), Shape({2, 48}));
  Tensor back = flatten.Backward(out);
  EXPECT_EQ(back.shape(), in.shape());
  EXPECT_EQ(MaxAbsDiff(back, in), 0.0f);
}

}  // namespace
}  // namespace adr
