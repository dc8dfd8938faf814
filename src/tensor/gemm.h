// GEMM: one register-blocked microkernel (simd::Kernels::gemm_block)
// under one cache-blocked loop nest serves the forward product and both
// backward products. The loop nest splits C into (row panel x column panel)
// tiles and, for GemmTransA's small-output, long-reduction shapes, also
// splits k into a shape-derived number of pieces summed in piece order.
// These kernels are the computation deep reuse removes work from, so
// their efficiency sets the denominator of every reported saving.
//
// Numerics (DESIGN.md section 6.3). Every output element sums its
// products in blocks of 128 consecutive k, each block accumulated from
// zero in registers in ascending k and then added to C in ascending block
// order. GemmTransA with k split adds the pieces' partial sums in piece
// order. GemmTransB transposes B and runs Gemm, so it is bitwise
// Gemm(a, transpose(b)). For a fixed backend every result is
// bit-identical for any thread count.

#ifndef ADR_TENSOR_GEMM_H_
#define ADR_TENSOR_GEMM_H_

#include <cstdint>

namespace adr {

/// \brief C = A * B (+ C if accumulate). A is MxK, B is KxN, C is MxN,
/// all row-major and contiguous.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate = false);

/// \brief C = A^T * B (+ C if accumulate). A is KxM (so A^T is MxK),
/// B is KxN, C is MxN.
void GemmTransA(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate = false);

/// \brief C = A * B^T (+ C if accumulate). A is MxK, B is NxK (so B^T is
/// KxN), C is MxN.
void GemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate = false);

/// \brief dst (cols x rows) = src (rows x cols)^T, row-major. Callers
/// that multiply by the same B^T many times transpose it once and call
/// Gemm, which is bitwise what GemmTransB would compute.
void Transpose(const float* src, int64_t rows, int64_t cols, float* dst);

/// \brief Naive triple-loop reference used to validate the blocked kernels.
void GemmReference(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n);

}  // namespace adr

#endif  // ADR_TENSOR_GEMM_H_
