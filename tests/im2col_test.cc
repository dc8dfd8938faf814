// Tests for ConvGeometry, Im2Col and Col2Im, including the adjoint
// property <Im2Col(x), g> == <x, Col2Im(g)> that backpropagation relies on.

#include <algorithm>
#include <cstring>
#include <limits>
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

TEST(Im2ColTest, MatrixGeometryUnfoldsAndFoldsRowsUnchanged) {
  // 5 rows of 40 floats: one 1 x 40 image per row under a 1 x 40 kernel.
  const ConvGeometry geo = MatrixGeometry(5, 40);
  ASSERT_TRUE(geo.Validate().ok());
  EXPECT_EQ(geo.unfolded_rows(), 5);
  EXPECT_EQ(geo.unfolded_cols(), 40);
  Rng rng(8);
  const Tensor x = Tensor::RandomGaussian(Shape({5, 40}), &rng);
  const Tensor images = x.Reshaped(Shape({5, 1, 1, 40}));
  Tensor cols(Shape({5, 40}));
  Im2Col(geo, images, &cols);
  EXPECT_EQ(std::memcmp(cols.data(), x.data(), sizeof(float) * 200), 0);
  Tensor folded(images.shape());
  Col2Im(geo, x, &folded);
  EXPECT_EQ(std::memcmp(folded.data(), x.data(), sizeof(float) * 200), 0);
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
// Im2Col/Col2Im compute each row's valid ky and kx ranges once and move
// kernel rows in 16-byte steps; they must give the same bits, and
// Col2Im must add in the same order.
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

void ExpectSameBits(const Tensor& actual, const Tensor& expected,
                    const char* what) {
  ASSERT_EQ(actual.shape(), expected.shape()) << what;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        sizeof(float) * static_cast<size_t>(
                                            actual.num_elements())),
            0)
      << what;
}

// Which ways the geometry's unfolded rows are clipped by the padding:
// bit 0 for a row clipped in kx only, bit 1 in ky only, bit 2 in both.
int ClippedRowKinds(const ConvGeometry& geo) {
  const auto clipped = [&](int64_t o, int64_t extent, int64_t taps) {
    const int64_t origin = o * geo.stride - geo.pad;
    return origin < 0 || origin + taps > extent;
  };
  int kinds = 0;
  for (int64_t oy = 0; oy < geo.out_height(); ++oy) {
    for (int64_t ox = 0; ox < geo.out_width(); ++ox) {
      const bool y = clipped(oy, geo.in_height, geo.kernel_h);
      const bool x = clipped(ox, geo.in_width, geo.kernel_w);
      if (x && !y) kinds |= 1;
      if (y && !x) kinds |= 2;
      if (x && y) kinds |= 4;
    }
  }
  return kinds;
}

class Im2ColReferenceSweep
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>> {};

TEST_P(Im2ColReferenceSweep, MatchesPerTapReferenceBitwise) {
  const auto [channels, size, kernel, stride, pad] = GetParam();
  const ConvGeometry geo = MakeGeometry(3, channels, size, kernel, stride,
                                        pad);
  ASSERT_TRUE(geo.Validate().ok());
  // Every padded case has rows clipped in kx only, in ky only and in
  // both; the unpadded ones have none.
  EXPECT_EQ(ClippedRowKinds(geo), pad > 0 ? 7 : 0);
  Rng rng(5);
  Tensor x = Tensor::RandomGaussian(Shape({3, channels, size, size}), &rng);
  Tensor g = Tensor::RandomGaussian(
      Shape({geo.unfolded_rows(), geo.unfolded_cols()}), &rng);

  Tensor cols = Tensor::Full(g.shape(), 7.0f);  // padded taps overwritten
  Im2Col(geo, x, &cols);
  Tensor expected_cols(g.shape());
  ReferenceIm2Col(geo, x.data(), expected_cols.data());
  ExpectSameBits(cols, expected_cols, "im2col");

  Tensor folded = Tensor::Full(x.shape(), 7.0f);  // Col2Im overwrites it
  Col2Im(geo, g, &folded);
  Tensor expected_folded(x.shape());
  ReferenceCol2Im(geo, g.data(), expected_folded.data());
  ExpectSameBits(folded, expected_folded, "col2im");

  // -0.0 everywhere but a sparse +inf and NaN: the unfold copies their
  // bits, and the fold starts each pixel from +0.0 and adds each tap
  // once, so a pixel reached by -0.0 alone is +0.0. One NaN bit pattern
  // and no -inf, so no sum depends on which operand's NaN propagates.
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (Tensor* t : {&x, &g}) {
    std::fill_n(t->data(), t->num_elements(), -0.0f);
    for (int64_t i = 0; i < t->num_elements(); i += 41) {
      t->data()[i] = specials[(i / 41) % 2];
    }
  }
  std::fill_n(cols.data(), cols.num_elements(), 7.0f);
  Im2Col(geo, x, &cols);
  ReferenceIm2Col(geo, x.data(), expected_cols.data());
  ExpectSameBits(cols, expected_cols, "im2col of -0.0, inf and NaN");
  Col2Im(geo, g, &folded);
  ReferenceCol2Im(geo, g.data(), expected_folded.data());
  ExpectSameBits(folded, expected_folded, "col2im of -0.0, inf and NaN");
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
                      std::make_tuple(2, 15, 11, 4, 2),
                      // Valid runs of 31 and 34 taps, either side of the
                      // width at which Im2ColRows switches to memcpy.
                      std::make_tuple(1, 34, 34, 3, 3),
                      // Kernel rows on both sides of a 4-float move and
                      // of its overlapping last move: widths 1 to 9.
                      std::make_tuple(2, 6, 1, 1, 1),
                      std::make_tuple(2, 7, 2, 1, 1),
                      std::make_tuple(2, 9, 3, 2, 1),
                      std::make_tuple(2, 10, 4, 2, 1),
                      std::make_tuple(2, 13, 7, 2, 3),
                      std::make_tuple(1, 12, 8, 1, 3),
                      std::make_tuple(2, 17, 9, 4, 2),
                      std::make_tuple(1, 16, 9, 1, 0)));

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
