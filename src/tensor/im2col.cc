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

// Kernel rows are short runs (kw taps: 11, 5 or 3 in the models here).
// Runs of at least kVec floats move kVec at a time, in fixed-size
// memcpys the compiler turns into single 16-byte loads and stores.
constexpr int64_t kVec = 4;
// A run this wide (a MatrixGeometry row is one K-float run) copies
// faster with library memcpy.
constexpr int64_t kMemcpyTaps = 32;

// Copies `rows` runs of `len` floats from src to dst, the runs
// `src_stride` and `dst_stride` floats apart. The last 16-byte move of a
// run may overlap the one before it, writing a few floats twice with the
// same values.
inline void CopyRuns(const float* src, int64_t src_stride, float* dst,
                     int64_t dst_stride, int64_t rows, int64_t len) {
  if (len >= kVec && len < kMemcpyTaps) {
    const int64_t last = len - kVec;
    for (int64_t r = 0; r < rows; ++r) {
      const float* from = src + r * src_stride;
      float* to = dst + r * dst_stride;
      for (int64_t i = 0; i < last; i += kVec) {
        std::memcpy(to + i, from + i, sizeof(float) * kVec);
      }
      std::memcpy(to + last, from + last, sizeof(float) * kVec);
    }
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* from = src + r * src_stride;
    float* to = dst + r * dst_stride;
    if (len >= kMemcpyTaps) {
      std::memcpy(to, from, sizeof(float) * static_cast<size_t>(len));
    } else {
      for (int64_t i = 0; i < len; ++i) to[i] = from[i];
    }
  }
}

// Adds `rows` runs of `len` floats at src to dst, strided as in
// CopyRuns: kVec floats at a time, then the tail one by one. Each dst
// float gets exactly one add per run, so the bits are the scalar loop's.
inline void AddRuns(const float* src, int64_t src_stride, float* dst,
                    int64_t dst_stride, int64_t rows, int64_t len) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* from = src + r * src_stride;
    float* to = dst + r * dst_stride;
    int64_t i = 0;
    for (; i + kVec <= len; i += kVec) {
      float sum[kVec], taps[kVec];
      std::memcpy(sum, to + i, sizeof sum);
      std::memcpy(taps, from + i, sizeof taps);
      for (int64_t j = 0; j < kVec; ++j) sum[j] += taps[j];
      std::memcpy(to + i, sum, sizeof sum);
    }
    for (; i < len; ++i) to[i] += from[i];
  }
}

// One row of the unfolded matrix: output pixel (oy, ox) of image n. Its
// taps inside the input are (ky, kx) in [ky_lo, ky_hi) x [kx_lo, kx_hi),
// the same for every channel.
struct UnfoldedRow {
  int64_t n;
  int64_t y0, x0;  // input coordinates of tap (0, 0)
  int64_t ky_lo, ky_hi;
  int64_t kx_lo, kx_hi;

  int64_t rows() const { return ky_hi - ky_lo; }
  int64_t run() const { return kx_hi - kx_lo; }
  // Offset of tap (ky_lo, kx_lo) in its channel plane; valid only when
  // rows() and run() are nonzero.
  int64_t first_tap(int64_t in_width) const {
    return (y0 + ky_lo) * in_width + x0 + kx_lo;
  }
};

// Row decoding shared by Im2ColRows and Col2ImRows: walks rows
// [row_begin, row_end) and hands each to `fn`.
template <typename Fn>
void ForEachUnfoldedRow(const ConvGeometry& geo, int64_t row_begin,
                        int64_t row_end, Fn&& fn) {
  const int64_t oh = geo.out_height();
  const int64_t ow = geo.out_width();
  const int64_t rows_per_image = oh * ow;
  // Taps [lo, hi) of a kernel starting at `origin` that lie in [0, extent).
  const auto clip = [](int64_t origin, int64_t extent, int64_t taps,
                       int64_t* lo, int64_t* hi) {
    *lo = std::clamp<int64_t>(-origin, 0, taps);
    *hi = std::clamp<int64_t>(extent - origin, *lo, taps);
  };
  UnfoldedRow r;
  r.n = row_begin / rows_per_image;
  const int64_t rem = row_begin % rows_per_image;
  int64_t oy = rem / ow;
  int64_t ox = rem % ow;
  for (int64_t row = row_begin; row < row_end; ++row) {
    r.y0 = oy * geo.stride - geo.pad;
    r.x0 = ox * geo.stride - geo.pad;
    clip(r.y0, geo.in_height, geo.kernel_h, &r.ky_lo, &r.ky_hi);
    clip(r.x0, geo.in_width, geo.kernel_w, &r.kx_lo, &r.kx_hi);
    fn(r);
    if (++ox == ow) {
      ox = 0;
      if (++oy == oh) {
        oy = 0;
        ++r.n;
      }
    }
  }
}

}  // namespace

void Im2ColRows(const ConvGeometry& geo, const float* input,
                int64_t row_begin, int64_t row_end, float* out) {
  const int64_t iw = geo.in_width;
  const int64_t kw = geo.kernel_w;
  const int64_t taps = geo.kernel_h * kw;  // per channel
  const int64_t chan_stride = geo.in_height * iw;
  const int64_t img_stride = geo.in_channels * chan_stride;
  float* dst = out;
  ForEachUnfoldedRow(geo, row_begin, row_end, [&](const UnfoldedRow& r) {
    // One output row: all (c, ky, kx) taps of this receptive field, zero
    // outside the input. A row the padding clips zeroes each channel's
    // taps, then copies the ones inside.
    const bool clipped = r.rows() < geo.kernel_h || r.run() < kw;
    const bool inside = r.rows() > 0 && r.run() > 0;
    const float* img = input + r.n * img_stride;
    for (int64_t c = 0; c < geo.in_channels; ++c, dst += taps) {
      if (clipped) {
        std::memset(dst, 0, sizeof(float) * static_cast<size_t>(taps));
      }
      if (inside) {
        CopyRuns(img + (c * chan_stride + r.first_tap(iw)), iw,
                 dst + (r.ky_lo * kw + r.kx_lo), kw, r.rows(), r.run());
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
  const int64_t iw = geo.in_width;
  const int64_t kw = geo.kernel_w;
  const int64_t taps = geo.kernel_h * kw;  // per channel
  const int64_t chan_stride = geo.in_height * iw;
  const int64_t img_stride = geo.in_channels * chan_stride;
  const float* src = rows;
  ForEachUnfoldedRow(geo, row_begin, row_end, [&](const UnfoldedRow& r) {
    const float* row = src;
    src += geo.in_channels * taps;
    if (r.rows() == 0 || r.run() == 0) return;  // all taps in the padding
    float* img = grad_input + r.n * img_stride;
    for (int64_t c = 0; c < geo.in_channels; ++c) {
      AddRuns(row + (c * taps + r.ky_lo * kw + r.kx_lo), kw,
              img + (c * chan_stride + r.first_tap(iw)), iw, r.rows(),
              r.run());
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
