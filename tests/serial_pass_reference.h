// Serial references for the activation- and parameter-sized passes that
// run on the ParallelFor pool: the single-loop forms the library computed
// before those passes were parallelized (and, for a conv layer, before the
// bias add was fused into the NCHW transpose and db read from the planes).
// The pool versions must match them bit for bit at any thread count.

#ifndef ADR_TESTS_SERIAL_PASS_REFERENCE_H_
#define ADR_TESTS_SERIAL_PASS_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/tensor.h"
#include "util/check.h"

namespace adr::testutil {

/// AddRowBias on [N, M] rows, then the row-by-row RowsToNchw transpose.
/// `bias` may be null (transpose only).
inline Tensor ReferenceBiasedRowsToNchw(const Tensor& rows, const float* bias,
                                        int64_t batch, int64_t channels,
                                        int64_t height, int64_t width) {
  const int64_t hw = height * width;
  ADR_CHECK(rows.shape() == Shape({batch * hw, channels}));
  Tensor y = rows;
  float* yp = y.data();
  if (bias != nullptr) {
    for (int64_t i = 0; i < batch * hw; ++i) {
      for (int64_t j = 0; j < channels; ++j) yp[i * channels + j] += bias[j];
    }
  }
  Tensor out(Shape({batch, channels, height, width}));
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t p = 0; p < hw; ++p) {
      const float* row = yp + (n * hw + p) * channels;
      for (int64_t c = 0; c < channels; ++c) {
        out.data()[(n * channels + c) * hw + p] = row[c];
      }
    }
  }
  return out;
}

/// The row-by-row NchwToRows transpose of a [Nb, C, H, W] tensor.
inline Tensor ReferenceNchwToRows(const Tensor& nchw) {
  const int64_t batch = nchw.shape()[0], channels = nchw.shape()[1];
  const int64_t hw = nchw.shape()[2] * nchw.shape()[3];
  Tensor out(Shape({batch * hw, channels}));
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t p = 0; p < hw; ++p) {
      for (int64_t c = 0; c < channels; ++c) {
        out.data()[(n * hw + p) * channels + c] =
            nchw.data()[(n * channels + c) * hw + p];
      }
    }
  }
  return out;
}

/// Serial ColumnSumsInto of an [M, N] matrix: each column from 0.0f,
/// rows in ascending order.
inline Tensor ReferenceColumnSums(const Tensor& matrix) {
  const int64_t m = matrix.shape()[0], n = matrix.shape()[1];
  Tensor out(Shape({n}));
  for (int64_t j = 0; j < n; ++j) out.data()[j] = 0.0f;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      out.data()[j] += matrix.data()[i * n + j];
    }
  }
  return out;
}

/// A conv layer's db: ColumnSumsInto(NchwToRows(grad_output)).
inline Tensor ReferenceConvBiasGrad(const Tensor& grad_output) {
  return ReferenceColumnSums(ReferenceNchwToRows(grad_output));
}

/// Serial max pooling (no padding): output and the flat input index of
/// each output's first maximum (the window's first element when no value
/// exceeds -inf).
struct ReferencePool {
  Tensor output;
  std::vector<int64_t> argmax;
};

inline ReferencePool ReferenceMaxPoolForward(const Tensor& input,
                                             int64_t kernel, int64_t stride) {
  const int64_t batch = input.shape()[0], channels = input.shape()[1];
  const int64_t ih = input.shape()[2], iw = input.shape()[3];
  const int64_t oh = (ih - kernel) / stride + 1;
  const int64_t ow = (iw - kernel) / stride + 1;
  ReferencePool pool{Tensor(Shape({batch, channels, oh, ow})), {}};
  int64_t out_idx = 0;
  for (int64_t q = 0; q < batch * channels; ++q) {
    const float* plane = input.data() + q * ih * iw;
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        int64_t best_idx = q * ih * iw + oy * stride * iw + ox * stride;
        for (int64_t ky = 0; ky < kernel; ++ky) {
          for (int64_t kx = 0; kx < kernel; ++kx) {
            const int64_t at = (oy * stride + ky) * iw + ox * stride + kx;
            if (plane[at] > best) {
              best = plane[at];
              best_idx = q * ih * iw + at;
            }
          }
        }
        pool.output.data()[out_idx++] = best;
        pool.argmax.push_back(best_idx);
      }
    }
  }
  return pool;
}

/// Scatter-adds grad_output into a zero input gradient in output order.
inline Tensor ReferenceMaxPoolBackward(const std::vector<int64_t>& argmax,
                                       const Tensor& grad_output,
                                       const Shape& input_shape) {
  Tensor grad_input(input_shape);
  for (size_t i = 0; i < argmax.size(); ++i) {
    grad_input.data()[argmax[i]] += grad_output.data()[i];
  }
  return grad_input;
}

/// One Adam step on a single tensor with moments m, v at step t (>= 1).
inline void ReferenceAdamStep(float lr, float beta1, float beta2,
                              float epsilon, int64_t t, const Tensor& grad,
                              Tensor* param, Tensor* m, Tensor* v) {
  const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  const float step = static_cast<float>(static_cast<double>(lr) *
                                        std::sqrt(bias2) / bias1);
  const float* g = grad.data();
  float* p = param->data();
  float* mp = m->data();
  float* vp = v->data();
  for (int64_t j = 0; j < param->num_elements(); ++j) {
    mp[j] = beta1 * mp[j] + (1.0f - beta1) * g[j];
    vp[j] = beta2 * vp[j] + (1.0f - beta2) * g[j] * g[j];
    p[j] -= step * mp[j] / (std::sqrt(vp[j]) + epsilon);
  }
}

}  // namespace adr::testutil

#endif  // ADR_TESTS_SERIAL_PASS_REFERENCE_H_
