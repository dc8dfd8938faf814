// Elementwise and reduction operations on tensors.

#ifndef ADR_TENSOR_TENSOR_OPS_H_
#define ADR_TENSOR_TENSOR_OPS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace adr {

/// \brief out[i] += in[i]; shapes must match.
void AddInPlace(const Tensor& in, Tensor* out);

/// \brief out[i] = a[i] + b[i].
Tensor Add(const Tensor& a, const Tensor& b);

/// \brief out[i] = a[i] - b[i].
Tensor Sub(const Tensor& a, const Tensor& b);

/// \brief out[i] *= scale.
void ScaleInPlace(float scale, Tensor* out);

/// \brief out[i] += scale * in[i] (axpy).
void Axpy(float scale, const Tensor& in, Tensor* out);

/// \brief Adds `bias` (length n) to every row of the MxN matrix `out`.
void AddRowBias(const Tensor& bias, Tensor* out);

/// \brief Raw-pointer AddRowBias for arena-backed buffers. Rows run in
/// parallel; each element is still `out + bias` once.
void AddRowBias(const float* bias, float* out, int64_t m_rows,
                int64_t n_cols);

/// \brief Sum over all elements.
double Sum(const Tensor& t);

/// \brief Column-wise sums of an MxN matrix into a caller-owned (e.g.
/// arena) buffer; `dst` (length n) is overwritten. Each column starts
/// from 0.0f and adds rows in ascending order. Serial: the only split that
/// keeps that order is by columns, and its strided reads lose to one
/// sequential pass at 1-2 threads (2.5 vs 5.5 ms at 100000 x 64).
void ColumnSumsInto(const float* src, int64_t m, int64_t n, float* dst);

/// \brief Mean of all elements.
double Mean(const Tensor& t);

/// \brief Max absolute element.
float MaxAbs(const Tensor& t);

/// \brief Squared L2 norm of all elements.
double SquaredNorm(const Tensor& t);

/// \brief Max |a[i] - b[i]|; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

/// \brief True when all |a[i] - b[i]| <= atol + rtol * |b[i]|.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

/// \brief Index of the maximum entry in row `row` of an MxN matrix.
int64_t ArgMaxRow(const Tensor& matrix, int64_t row);

}  // namespace adr

#endif  // ADR_TENSOR_TENSOR_OPS_H_
