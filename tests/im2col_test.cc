// Tests for ConvGeometry, Im2Col and Col2Im, including the adjoint
// property <Im2Col(x), g> == <x, Col2Im(g)> that backpropagation relies on.

#include <algorithm>
#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

ConvGeometry MakeGeometry(int64_t batch, int64_t channels, int64_t size,
                          int64_t kernel, int64_t stride, int64_t pad) {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = channels;
  geo.in_height = size;
  geo.in_width = size;
  geo.kernel_h = kernel;
  geo.kernel_w = kernel;
  geo.stride = stride;
  geo.pad = pad;
  return geo;
}

TEST(ConvGeometryTest, OutputDims) {
  const ConvGeometry geo = MakeGeometry(2, 3, 32, 5, 1, 2);
  EXPECT_EQ(geo.out_height(), 32);
  EXPECT_EQ(geo.out_width(), 32);
  EXPECT_EQ(geo.unfolded_rows(), 2 * 32 * 32);
  EXPECT_EQ(geo.unfolded_cols(), 3 * 5 * 5);
  EXPECT_EQ(geo.rows_per_image(), 32 * 32);
}

TEST(ConvGeometryTest, StridedOutputDims) {
  const ConvGeometry geo = MakeGeometry(1, 3, 227, 11, 4, 0);
  EXPECT_EQ(geo.out_height(), 55);
  EXPECT_EQ(geo.unfolded_cols(), 363);  // the paper's AlexNet conv1 K
}

TEST(ConvGeometryTest, ValidationCatchesBadInputs) {
  ConvGeometry geo = MakeGeometry(1, 1, 8, 3, 1, 0);
  EXPECT_TRUE(geo.Validate().ok());
  geo.batch = 0;
  EXPECT_EQ(geo.Validate().code(), StatusCode::kInvalidArgument);
  geo = MakeGeometry(1, 1, 8, 0, 1, 0);
  EXPECT_FALSE(geo.Validate().ok());
  geo = MakeGeometry(1, 1, 8, 3, 0, 0);
  EXPECT_FALSE(geo.Validate().ok());
  geo = MakeGeometry(1, 1, 8, 3, 1, -1);
  EXPECT_FALSE(geo.Validate().ok());
  geo = MakeGeometry(1, 1, 2, 5, 1, 0);  // kernel larger than input
  EXPECT_FALSE(geo.Validate().ok());
  geo = MakeGeometry(1, 1, 8, 3, 2, 0);  // (8-3) % 2 != 0
  EXPECT_FALSE(geo.Validate().ok());
}

TEST(Im2ColTest, OneByOneKernelIsTransposedCopy) {
  const ConvGeometry geo = MakeGeometry(1, 2, 3, 1, 1, 0);
  Rng rng(1);
  Tensor input = Tensor::RandomGaussian(
      Shape({1, 2, 3, 3}), &rng);
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, input, &cols);
  // Row p (output pixel p) holds [channel0[p], channel1[p]].
  for (int64_t p = 0; p < 9; ++p) {
    EXPECT_EQ(cols.at(p, 0), input.at(p));
    EXPECT_EQ(cols.at(p, 1), input.at(9 + p));
  }
}

TEST(Im2ColTest, KnownPatchLayout) {
  // 1x1x3x3 image with values 0..8, 2x2 kernel, stride 1, no pad.
  Tensor input(Shape({1, 1, 3, 3}), {0, 1, 2, 3, 4, 5, 6, 7, 8});
  const ConvGeometry geo = MakeGeometry(1, 1, 3, 2, 1, 0);
  Tensor cols(Shape({4, 4}));
  Im2Col(geo, input, &cols);
  // Patch at (0,0): 0 1 3 4
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_EQ(cols.at(0, 1), 1.0f);
  EXPECT_EQ(cols.at(0, 2), 3.0f);
  EXPECT_EQ(cols.at(0, 3), 4.0f);
  // Patch at (1,1): 4 5 7 8
  EXPECT_EQ(cols.at(3, 0), 4.0f);
  EXPECT_EQ(cols.at(3, 3), 8.0f);
}

TEST(Im2ColTest, ZeroPaddingProducesZeros) {
  Tensor input = Tensor::Ones(Shape({1, 1, 2, 2}));
  const ConvGeometry geo = MakeGeometry(1, 1, 2, 3, 1, 1);
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, input, &cols);
  // Top-left patch: first row and first column of the 3x3 window are pad.
  EXPECT_EQ(cols.at(0, 0), 0.0f);  // (-1,-1)
  EXPECT_EQ(cols.at(0, 4), 1.0f);  // (0,0)
}

TEST(Im2ColTest, BatchRowsAreContiguousPerImage) {
  const ConvGeometry geo = MakeGeometry(2, 1, 4, 2, 2, 0);
  Rng rng(2);
  Tensor input = Tensor::RandomGaussian(Shape({2, 1, 4, 4}), &rng);
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, input, &cols);
  // Second image's first patch starts at row rows_per_image().
  const int64_t row = geo.rows_per_image();
  EXPECT_EQ(cols.at(row, 0), input.at4(1, 0, 0, 0));
}

class Im2ColAdjointSweep
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>> {};

TEST_P(Im2ColAdjointSweep, Col2ImIsAdjointOfIm2Col) {
  const auto [channels, size, kernel, stride, pad] = GetParam();
  const ConvGeometry geo = MakeGeometry(2, channels, size, kernel, stride,
                                        pad);
  ASSERT_TRUE(geo.Validate().ok());
  Rng rng(3);
  Tensor x = Tensor::RandomGaussian(
      Shape({2, channels, size, size}), &rng);
  Tensor g = Tensor::RandomGaussian(
      Shape({geo.unfolded_rows(), geo.unfolded_cols()}), &rng);

  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  Im2Col(geo, x, &cols);
  Tensor folded(Shape({2, channels, size, size}));
  Col2Im(geo, g, &folded);

  // <Im2Col(x), g> must equal <x, Col2Im(g)>.
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < cols.num_elements(); ++i) {
    lhs += static_cast<double>(cols.at(i)) * g.at(i);
  }
  for (int64_t i = 0; i < x.num_elements(); ++i) {
    rhs += static_cast<double>(x.at(i)) * folded.at(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColAdjointSweep,
    ::testing::Values(std::make_tuple(1, 6, 3, 1, 0),
                      std::make_tuple(3, 8, 3, 1, 1),
                      std::make_tuple(2, 9, 3, 2, 0),
                      std::make_tuple(4, 7, 1, 1, 0),
                      std::make_tuple(1, 11, 5, 2, 1),
                      std::make_tuple(3, 12, 4, 4, 0)));

// Per-tap references: every (row, c, ky, kx) tap tests its own bounds.
// Im2Col/Col2Im compute each row's valid kx range once; they must give
// the same bits, and Col2Im must add in the same order.
void ReferenceIm2Col(const ConvGeometry& geo, const float* input,
                     float* out) {
  const int64_t ih = geo.in_height, iw = geo.in_width;
  for (int64_t n = 0; n < geo.batch; ++n) {
    for (int64_t oy = 0; oy < geo.out_height(); ++oy) {
      for (int64_t ox = 0; ox < geo.out_width(); ++ox) {
        for (int64_t c = 0; c < geo.in_channels; ++c) {
          const float* chan = input + (n * geo.in_channels + c) * ih * iw;
          for (int64_t ky = 0; ky < geo.kernel_h; ++ky) {
            const int64_t y = oy * geo.stride + ky - geo.pad;
            for (int64_t kx = 0; kx < geo.kernel_w; ++kx) {
              const int64_t x = ox * geo.stride + kx - geo.pad;
              const bool inside = y >= 0 && y < ih && x >= 0 && x < iw;
              *out++ = inside ? chan[y * iw + x] : 0.0f;
            }
          }
        }
      }
    }
  }
}

void ReferenceCol2Im(const ConvGeometry& geo, const float* cols,
                     float* grad_input) {
  const int64_t ih = geo.in_height, iw = geo.in_width;
  std::fill_n(grad_input, geo.batch * geo.in_channels * ih * iw, 0.0f);
  for (int64_t n = 0; n < geo.batch; ++n) {
    for (int64_t oy = 0; oy < geo.out_height(); ++oy) {
      for (int64_t ox = 0; ox < geo.out_width(); ++ox) {
        for (int64_t c = 0; c < geo.in_channels; ++c) {
          float* chan = grad_input + (n * geo.in_channels + c) * ih * iw;
          for (int64_t ky = 0; ky < geo.kernel_h; ++ky) {
            const int64_t y = oy * geo.stride + ky - geo.pad;
            for (int64_t kx = 0; kx < geo.kernel_w; ++kx) {
              const int64_t x = ox * geo.stride + kx - geo.pad;
              const bool inside = y >= 0 && y < ih && x >= 0 && x < iw;
              if (inside) chan[y * iw + x] += *cols;
              ++cols;
            }
          }
        }
      }
    }
  }
}

class Im2ColReferenceSweep
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>> {};

TEST_P(Im2ColReferenceSweep, MatchesPerTapReferenceBitwise) {
  const auto [channels, size, kernel, stride, pad] = GetParam();
  const ConvGeometry geo = MakeGeometry(3, channels, size, kernel, stride,
                                        pad);
  ASSERT_TRUE(geo.Validate().ok());
  Rng rng(5);
  Tensor x = Tensor::RandomGaussian(Shape({3, channels, size, size}), &rng);
  Tensor g = Tensor::RandomGaussian(
      Shape({geo.unfolded_rows(), geo.unfolded_cols()}), &rng);

  Tensor cols(g.shape());
  Im2Col(geo, x, &cols);
  Tensor expected_cols(g.shape());
  ReferenceIm2Col(geo, x.data(), expected_cols.data());
  EXPECT_EQ(std::memcmp(cols.data(), expected_cols.data(),
                        sizeof(float) * static_cast<size_t>(
                                            cols.num_elements())),
            0);

  Tensor folded(x.shape());
  Col2Im(geo, g, &folded);
  Tensor expected_folded(x.shape());
  ReferenceCol2Im(geo, g.data(), expected_folded.data());
  EXPECT_EQ(std::memcmp(folded.data(), expected_folded.data(),
                        sizeof(float) * static_cast<size_t>(
                                            folded.num_elements())),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColReferenceSweep,
    ::testing::Values(std::make_tuple(1, 6, 3, 1, 0),
                      std::make_tuple(3, 8, 3, 1, 1),
                      std::make_tuple(2, 9, 3, 2, 0),
                      std::make_tuple(3, 32, 5, 1, 2),
                      std::make_tuple(2, 11, 5, 2, 1),
                      std::make_tuple(2, 3, 3, 1, 2),    // pad < kernel edge
                      std::make_tuple(1, 4, 2, 1, 3),    // rows all padding
                      std::make_tuple(2, 15, 11, 4, 2)));

TEST(Col2ImTest, OverlappingPatchesAccumulate) {
  // 3x3 input, 2x2 kernel, stride 1: center pixel (1,1) appears in all
  // four patches.
  const ConvGeometry geo = MakeGeometry(1, 1, 3, 2, 1, 0);
  Tensor g = Tensor::Ones(Shape({4, 4}));
  Tensor folded(Shape({1, 1, 3, 3}));
  Col2Im(geo, g, &folded);
  EXPECT_EQ(folded.at4(0, 0, 1, 1), 4.0f);  // in 4 patches
  EXPECT_EQ(folded.at4(0, 0, 0, 0), 1.0f);  // in 1 patch
  EXPECT_EQ(folded.at4(0, 0, 0, 1), 2.0f);  // in 2 patches
}

}  // namespace
}  // namespace adr
