// The row-slice Gemm that preceded the shared blocked GEMM, kept as the
// bitwise reference for Gemm (gemm_test.cc): one serial pass over the
// rows of C in 64-row slabs, zero-filling C and then adding 128-deep k
// blocks in ascending order through 256-column blocks. Its per-element
// arithmetic is the contract Gemm must keep: each k block summed
// from zero in ascending k by the backend's microkernel, the blocks
// added to C in ascending order.

#ifndef ADR_TESTS_GEMM_ROW_SLICE_REFERENCE_H_
#define ADR_TESTS_GEMM_ROW_SLICE_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/simd.h"

namespace adr::testutil {

/// C = A * B (+ C if accumulate) on `kernels`; A is m x k, B is k x n,
/// C is m x n, all row-major and contiguous.
inline void RowSliceGemm(const simd::Kernels& kernels, const float* a,
                         const float* b, float* c, int64_t m, int64_t k,
                         int64_t n, bool accumulate) {
  constexpr int64_t kBlockM = 64;
  constexpr int64_t kBlockK = 128;
  constexpr int64_t kBlockN = 256;
  if (!accumulate) {
    std::memset(c, 0, sizeof(float) * static_cast<size_t>(m * n));
  }
  for (int64_t i0 = 0; i0 < m; i0 += kBlockM) {
    const int64_t i1 = std::min(i0 + kBlockM, m);
    for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const int64_t k1 = std::min(k0 + kBlockK, k);
      for (int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const int64_t j1 = std::min(j0 + kBlockN, n);
        kernels.gemm_block(a + i0 * k + k0, k, 1, b + k0 * n + j0, n,
                           c + i0 * n + j0, n, i1 - i0, k1 - k0, j1 - j0,
                           /*accumulate=*/true);
      }
    }
  }
}

}  // namespace adr::testutil

#endif  // ADR_TESTS_GEMM_ROW_SLICE_REFERENCE_H_
