#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/parallel.h"

namespace adr {

Status ConvGeometry::Validate() const {
  if (batch <= 0 || in_channels <= 0 || in_height <= 0 || in_width <= 0) {
    return Status::InvalidArgument("conv geometry: input dims must be > 0");
  }
  if (kernel_h <= 0 || kernel_w <= 0) {
    return Status::InvalidArgument("conv geometry: kernel dims must be > 0");
  }
  if (stride <= 0) {
    return Status::InvalidArgument("conv geometry: stride must be > 0");
  }
  if (pad < 0) {
    return Status::InvalidArgument("conv geometry: pad must be >= 0");
  }
  if (in_height + 2 * pad < kernel_h || in_width + 2 * pad < kernel_w) {
    return Status::InvalidArgument(
        "conv geometry: kernel larger than padded input");
  }
  if ((in_height + 2 * pad - kernel_h) % stride != 0 ||
      (in_width + 2 * pad - kernel_w) % stride != 0) {
    return Status::InvalidArgument(
        "conv geometry: stride does not evenly tile the input");
  }
  return Status::OK();
}

namespace {

// Im2ColRows copies a run of at least this many valid taps with memcpy;
// shorter runs (conv kernel rows) copy faster inline.
constexpr int64_t kMemcpyTaps = 32;

// Row decoding shared by Im2ColRows and Col2ImRows: walks rows
// [row_begin, row_end) as (n, oy, ox) and hands each to `fn` together
// with the row's valid kx range [kx_lo, kx_hi) (the taps inside the
// input's width; the same for every channel and kernel row).
template <typename Fn>
void ForEachUnfoldedRow(const ConvGeometry& geo, int64_t row_begin,
                        int64_t row_end, Fn&& fn) {
  const int64_t oh = geo.out_height();
  const int64_t ow = geo.out_width();
  const int64_t rows_per_image = oh * ow;
  int64_t n = row_begin / rows_per_image;
  const int64_t rem = row_begin % rows_per_image;
  int64_t oy = rem / ow;
  int64_t ox = rem % ow;
  for (int64_t row = row_begin; row < row_end; ++row) {
    const int64_t x0 = ox * geo.stride - geo.pad;
    const int64_t kx_lo = std::clamp<int64_t>(-x0, 0, geo.kernel_w);
    const int64_t kx_hi =
        std::clamp<int64_t>(geo.in_width - x0, kx_lo, geo.kernel_w);
    fn(n, oy * geo.stride - geo.pad, x0, kx_lo, kx_hi);
    if (++ox == ow) {
      ox = 0;
      if (++oy == oh) {
        oy = 0;
        ++n;
      }
    }
  }
}

}  // namespace

void Im2ColRows(const ConvGeometry& geo, const float* input,
                int64_t row_begin, int64_t row_end, float* out) {
  const int64_t ih = geo.in_height, iw = geo.in_width;
  const int64_t kw = geo.kernel_w;
  const int64_t chan_stride = ih * iw;
  const int64_t img_stride = geo.in_channels * chan_stride;
  float* dst = out;
  ForEachUnfoldedRow(geo, row_begin, row_end,
                     [&](int64_t n, int64_t y0, int64_t x0, int64_t kx_lo,
                         int64_t kx_hi) {
    // One output row: all (c, ky, kx) taps of this receptive field, zero
    // outside the input.
    const float* img = input + n * img_stride;
    for (int64_t c = 0; c < geo.in_channels; ++c) {
      const float* chan = img + c * chan_stride;
      for (int64_t ky = 0; ky < geo.kernel_h; ++ky, dst += kw) {
        const int64_t y = y0 + ky;
        if (y < 0 || y >= ih) {
          for (int64_t kx = 0; kx < kw; ++kx) dst[kx] = 0.0f;
          continue;
        }
        const int64_t base = y * iw + x0;
        int64_t kx = 0;
        for (; kx < kx_lo; ++kx) dst[kx] = 0.0f;
        if (kx_hi - kx_lo >= kMemcpyTaps) {
          // A wide run (a MatrixGeometry row is one K-float run).
          std::memcpy(dst + kx_lo, chan + (base + kx_lo),
                      sizeof(float) * static_cast<size_t>(kx_hi - kx_lo));
          kx = kx_hi;
        }
        for (; kx < kx_hi; ++kx) dst[kx] = chan[base + kx];
        for (; kx < kw; ++kx) dst[kx] = 0.0f;
      }
    }
  });
}

void Im2Col(const ConvGeometry& geo, const Tensor& input, Tensor* out) {
  ADR_CHECK(input.shape() ==
            Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}))
      << "Im2Col input shape " << input.shape().ToString();
  ADR_CHECK(out->shape() == Shape({geo.unfolded_rows(), geo.unfolded_cols()}))
      << "Im2Col output shape " << out->shape().ToString();
  Im2Col(geo, input.data(), out->data());
}

void Im2Col(const ConvGeometry& geo, const float* input, float* out) {
  const int64_t k_cols = geo.unfolded_cols();
  const int64_t rows_per_image = geo.rows_per_image();
  // Per-image parallelism: image n fills exactly the row block
  // [n * rows_per_image, (n+1) * rows_per_image) of the unfolded matrix,
  // so chunks write disjoint ranges. Each row is a pure function of the
  // input, so this matches any row tiling of Im2ColRows bit-for-bit.
  ParallelFor(geo.batch, 1, [&](int64_t n_begin, int64_t n_end) {
    Im2ColRows(geo, input, n_begin * rows_per_image, n_end * rows_per_image,
               out + n_begin * rows_per_image * k_cols);
  });
}

ConvGeometry MatrixGeometry(int64_t num_rows, int64_t num_cols) {
  ConvGeometry geo;
  geo.batch = num_rows;
  geo.in_channels = 1;
  geo.in_height = 1;
  geo.in_width = num_cols;
  geo.kernel_h = 1;
  geo.kernel_w = num_cols;
  return geo;
}

int64_t L2TileRows(int64_t row_width) {
  const int64_t budget_floats = (192 * 1024) / static_cast<int64_t>(sizeof(float));
  const int64_t rows = budget_floats / (row_width < 1 ? 1 : row_width);
  return std::min<int64_t>(4096, std::max<int64_t>(64, rows));
}

void Col2Im(const ConvGeometry& geo, const Tensor& grad_cols,
            Tensor* grad_input) {
  ADR_CHECK(grad_cols.shape() ==
            Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  ADR_CHECK(grad_input->shape() ==
            Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}));
  Col2Im(geo, grad_cols.data(), grad_input->data());
}

void Col2ImRows(const ConvGeometry& geo, const float* rows,
                int64_t row_begin, int64_t row_end, float* grad_input) {
  const int64_t ih = geo.in_height, iw = geo.in_width;
  const int64_t kw = geo.kernel_w;
  const int64_t chan_stride = ih * iw;
  const int64_t img_stride = geo.in_channels * chan_stride;
  const float* src = rows;
  ForEachUnfoldedRow(geo, row_begin, row_end,
                     [&](int64_t n, int64_t y0, int64_t x0, int64_t kx_lo,
                         int64_t kx_hi) {
    float* img = grad_input + n * img_stride;
    for (int64_t c = 0; c < geo.in_channels; ++c) {
      float* chan = img + c * chan_stride;
      for (int64_t ky = 0; ky < geo.kernel_h; ++ky, src += kw) {
        const int64_t y = y0 + ky;
        if (y < 0 || y >= ih) continue;
        float* dst = chan + (y * iw + x0 + kx_lo);
        const float* taps = src + kx_lo;
        for (int64_t kx = 0; kx < kx_hi - kx_lo; ++kx) dst[kx] += taps[kx];
      }
    }
  });
}

void Col2Im(const ConvGeometry& geo, const float* grad_cols,
            float* grad_input) {
  const int64_t rows_per_image = geo.rows_per_image();
  const int64_t img_size = geo.in_channels * geo.in_height * geo.in_width;
  const int64_t cols_per_image = rows_per_image * geo.unfolded_cols();
  // Per-image parallelism: patches only overlap within one image, so each
  // chunk zeroes and accumulates into a disjoint [Ic, Ih, Iw] slab.
  ParallelFor(geo.batch, 1, [&](int64_t n_begin, int64_t n_end) {
    std::fill(grad_input + n_begin * img_size, grad_input + n_end * img_size,
              0.0f);
    for (int64_t n = n_begin; n < n_end; ++n) {
      Col2ImRows(geo, grad_cols + n * cols_per_image, n * rows_per_image,
                 (n + 1) * rows_per_image, grad_input);
    }
  });
}

}  // namespace adr
