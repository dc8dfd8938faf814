#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"
#include "util/check.h"
#include "util/parallel.h"

namespace adr {

namespace {

// Spatial positions per RowsToNchw tile: a tile's rows ([kTransposeTile,
// C] floats) stay in L1 while each channel's plane segment is written
// contiguously. Plane strides are often a multiple of 4 KiB, so writing
// all C planes per position thrashes L1 sets (3.5x slower at CifarNet
// conv1). NchwToRows reads the planes instead, and its row-by-row loop
// is the faster one there.
constexpr int64_t kTransposeTile = 64;

}  // namespace

void RowsToNchw(const float* rows, const float* bias, int64_t batch,
                int64_t channels, int64_t height, int64_t width,
                float* out) {
  const int64_t hw = height * width;
  ParallelFor(batch, GrainForCost(hw * channels), [&](int64_t begin,
                                                       int64_t end) {
    for (int64_t n = begin; n < end; ++n) {
      const float* src = rows + n * hw * channels;
      float* dst = out + n * channels * hw;
      for (int64_t p0 = 0; p0 < hw; p0 += kTransposeTile) {
        const int64_t p1 = std::min(p0 + kTransposeTile, hw);
        for (int64_t c = 0; c < channels; ++c) {
          float* plane = dst + c * hw;
          if (bias != nullptr) {
            const float b = bias[c];
            for (int64_t p = p0; p < p1; ++p) {
              plane[p] = src[p * channels + c] + b;
            }
          } else {
            for (int64_t p = p0; p < p1; ++p) plane[p] = src[p * channels + c];
          }
        }
      }
    }
  });
}

void NchwToRows(const Tensor& nchw, float* out) {
  ADR_CHECK_EQ(nchw.shape().rank(), 4);
  const int64_t batch = nchw.shape()[0], channels = nchw.shape()[1];
  const int64_t hw = nchw.shape()[2] * nchw.shape()[3];
  const float* data = nchw.data();
  ParallelFor(batch, GrainForCost(hw * channels), [&](int64_t begin,
                                                       int64_t end) {
    for (int64_t n = begin; n < end; ++n) {
      const float* src = data + n * channels * hw;
      for (int64_t p = 0; p < hw; ++p) {
        float* row = out + (n * hw + p) * channels;
        for (int64_t c = 0; c < channels; ++c) row[c] = src[c * hw + p];
      }
    }
  });
}

void NchwChannelSums(const Tensor& nchw, float* out) {
  ADR_CHECK_EQ(nchw.shape().rank(), 4);
  // Channels summed side by side: independent add chains, so a sum's
  // latency does not serialize the pass.
  constexpr int64_t kLanes = 8;
  const int64_t batch = nchw.shape()[0], channels = nchw.shape()[1];
  const int64_t hw = nchw.shape()[2] * nchw.shape()[3];
  const float* data = nchw.data();
  ParallelFor(channels, GrainForCost(batch * hw), [&](int64_t begin,
                                                       int64_t end) {
    for (int64_t c0 = begin; c0 < end; c0 += kLanes) {
      const int64_t lanes = std::min(kLanes, end - c0);
      float sums[kLanes] = {};
      for (int64_t n = 0; n < batch; ++n) {
        const float* planes = data + (n * channels + c0) * hw;
        for (int64_t p = 0; p < hw; ++p) {
          for (int64_t l = 0; l < lanes; ++l) sums[l] += planes[l * hw + p];
        }
      }
      std::copy_n(sums, lanes, out + c0);
    }
  });
}

void ConvBackwardInput(const ConvGeometry& geo, const float* dy,
                       const float* weight, int64_t out_channels,
                       WorkspaceArena* arena, float* grad_input) {
  const int64_t m = out_channels;
  const int64_t k = geo.unfolded_cols();
  float* weight_t = arena->AllocFloats(m * k);  // W^T: [M, K]
  Transpose(weight, k, m, weight_t);
  // Up to four L2TileRows tiles (~768 KiB): a whole image at CifarNet
  // shapes, so its dx rows stay in L2 from the GEMM to the fold.
  Col2ImTiles(geo, std::min(geo.rows_per_image(), 4 * L2TileRows(k)), arena,
              [&](int64_t row, int64_t rows, float* tile) {
                Gemm(dy + row * m, weight_t, tile, rows, m, k);
              },
              grad_input);
}

Conv2d::Conv2d(std::string name, const Conv2dConfig& config, Rng* rng)
    : name_(std::move(name)), config_(config) {
  const int64_t k =
      config_.in_channels * config_.kernel * config_.kernel;
  const int64_t m = config_.out_channels;
  ADR_CHECK_GT(k, 0);
  ADR_CHECK_GT(m, 0);
  // He-normal initialization: stddev = sqrt(2 / fan_in).
  const float stddev = std::sqrt(2.0f / static_cast<float>(k));
  weight_ = Tensor::RandomGaussian(Shape({k, m}), rng, 0.0f, stddev);
  bias_ = Tensor(Shape({m}));
  grad_weight_ = Tensor(Shape({k, m}));
  grad_bias_ = Tensor(Shape({m}));
}

ConvGeometry Conv2d::Geometry(int64_t batch) const {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = config_.in_channels;
  geo.in_height = config_.in_height;
  geo.in_width = config_.in_width;
  geo.kernel_h = config_.kernel;
  geo.kernel_w = config_.kernel;
  geo.stride = config_.stride;
  geo.pad = config_.pad;
  return geo;
}

void Conv2d::KeepUnfoldedInput(const Tensor& input, bool keep) {
  if (!keep) {
    cached_cols_ = Tensor();
    cached_batch_ = 0;
    return;
  }
  // The tensor persists across steps, so at fixed shapes it is allocated
  // once.
  const ConvGeometry geo = Geometry(input.shape()[0]);
  const Shape shape({geo.unfolded_rows(), geo.unfolded_cols()});
  if (!(cached_cols_.shape() == shape)) cached_cols_ = Tensor(shape);
  Im2Col(geo, input, &cached_cols_);
  cached_batch_ = geo.batch;
}

Tensor Conv2d::Forward(const Tensor& input, bool training) {
  const int64_t batch = input.shape()[0];
  const ConvGeometry geo = Geometry(batch);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = config_.out_channels;

  arena_.Reset();
  float* y = arena_.AllocFloats(n * m);

  KeepUnfoldedInput(input, training);
  if (training) {
    Gemm(cached_cols_.data(), weight_.data(), y, n, k, m);
  } else {
    // Inference needs no backward state: stream L2-sized row tiles
    // through im2col + GEMM instead of materializing N x K. Rows are
    // independent in both, so the output is bit-identical to the
    // materialized path.
    const int64_t tile_rows = L2TileRows(k);
    float* tile = arena_.AllocFloats(tile_rows * k);
    for (int64_t row = 0; row < n; row += tile_rows) {
      const int64_t rows = std::min<int64_t>(tile_rows, n - row);
      ParallelFor(rows, 32, [&](int64_t begin, int64_t end) {
        Im2ColRows(geo, input.data(), row + begin, row + end,
                   tile + begin * k);
      });
      Gemm(tile, weight_.data(), y + row * m, rows, k, m);
    }
  }

  Tensor out(Shape({batch, m, geo.out_height(), geo.out_width()}));
  RowsToNchw(y, bias_.data(), batch, m, geo.out_height(), geo.out_width(),
             out.data());
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  ADR_CHECK_GT(cached_batch_, 0)
      << "Backward requires a preceding training-mode Forward";
  const ConvGeometry geo = Geometry(cached_batch_);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = config_.out_channels;

  ADR_CHECK(grad_output.shape() == Shape({cached_batch_, m,
                                          geo.out_height(),
                                          geo.out_width()}));
  float* dy = arena_.AllocFloats(n * m);  // [N, M]
  NchwToRows(grad_output, dy);

  // dW = x^T * dy  (Eq. 2); db = column sums of dy, read from the planes.
  GemmTransA(cached_cols_.data(), dy, grad_weight_.data(), k, n, m);
  NchwChannelSums(grad_output, grad_bias_.data());

  if (!needs_input_grad()) return Tensor();
  // dx = col2im(dy * W^T)  (Eq. 3), folded tile by tile.
  Tensor grad_input(Shape(
      {cached_batch_, config_.in_channels, config_.in_height, config_.in_width}));
  ConvBackwardInput(geo, dy, weight_.data(), m, &arena_, grad_input.data());
  return grad_input;
}

double Conv2d::ForwardMacs(int64_t batch) const {
  const ConvGeometry geo = Geometry(batch);
  return static_cast<double>(geo.unfolded_rows()) * geo.unfolded_cols() *
         config_.out_channels;
}

}  // namespace adr
