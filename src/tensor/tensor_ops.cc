#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace adr {

void AddInPlace(const Tensor& in, Tensor* out) {
  ADR_CHECK(in.SameShape(*out));
  const float* src = in.data();
  float* dst = out->data();
  const int64_t n = in.num_elements();
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  AddInPlace(b, &out);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  ADR_CHECK(a.SameShape(b));
  Tensor out = a;
  const float* src = b.data();
  float* dst = out.data();
  for (int64_t i = 0; i < out.num_elements(); ++i) dst[i] -= src[i];
  return out;
}

void ScaleInPlace(float scale, Tensor* out) {
  float* dst = out->data();
  const int64_t n = out->num_elements();
  for (int64_t i = 0; i < n; ++i) dst[i] *= scale;
}

void Axpy(float scale, const Tensor& in, Tensor* out) {
  ADR_CHECK(in.SameShape(*out));
  const float* src = in.data();
  float* dst = out->data();
  const int64_t n = in.num_elements();
  for (int64_t i = 0; i < n; ++i) dst[i] += scale * src[i];
}

void AddRowBias(const Tensor& bias, Tensor* out) {
  ADR_CHECK_EQ(out->shape().rank(), 2);
  ADR_CHECK_EQ(bias.num_elements(), out->shape()[1]);
  AddRowBias(bias.data(), out->data(), out->shape()[0], out->shape()[1]);
}

void AddRowBias(const float* bias, float* out, int64_t m_rows,
                int64_t n_cols) {
  ParallelFor(m_rows, GrainForCost(n_cols), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      for (int64_t j = 0; j < n_cols; ++j) out[i * n_cols + j] += bias[j];
    }
  });
}

double Sum(const Tensor& t) {
  double s = 0.0;
  const float* p = t.data();
  for (int64_t i = 0; i < t.num_elements(); ++i) s += p[i];
  return s;
}

void ColumnSumsInto(const float* src, int64_t m, int64_t n, float* dst) {
  for (int64_t j = 0; j < n; ++j) dst[j] = 0.0f;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) dst[j] += src[i * n + j];
  }
}

double Mean(const Tensor& t) {
  return Sum(t) / static_cast<double>(t.num_elements());
}

float MaxAbs(const Tensor& t) {
  float m = 0.0f;
  const float* p = t.data();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    m = std::max(m, std::fabs(p[i]));
  }
  return m;
}

double SquaredNorm(const Tensor& t) {
  double s = 0.0;
  const float* p = t.data();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    s += static_cast<double>(p[i]) * p[i];
  }
  return s;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  ADR_CHECK(a.SameShape(b));
  float m = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  }
  return m;
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.SameShape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol + rtol * std::fabs(pb[i])) {
      return false;
    }
  }
  return true;
}

int64_t ArgMaxRow(const Tensor& matrix, int64_t row) {
  ADR_CHECK_EQ(matrix.shape().rank(), 2);
  const int64_t n = matrix.shape()[1];
  const float* p = matrix.data() + row * n;
  int64_t best = 0;
  for (int64_t j = 1; j < n; ++j) {
    if (p[j] > p[best]) best = j;
  }
  return best;
}

}  // namespace adr
