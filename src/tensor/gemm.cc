#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/simd.h"
#include "util/parallel.h"

namespace adr {

namespace {

// Cache blocking: a kBlockM x kBlockK panel of A (48 KiB) and a
// kBlockK x kBlockN panel of B (128 KiB) stay in L2 while the microkernel
// sweeps them. kBlockK also fixes the accumulation order (see gemm.h),
// which the LSH project-and-sign kernel reproduces.
constexpr int64_t kBlockM = 96;
constexpr int64_t kBlockK = simd::kGemmDepthBlock;
constexpr int64_t kBlockN = 256;

// k-split policy for GemmTransA: split only when C has fewer than
// kSplitTasks tiles, into at most kMaxSplits pieces of at least
// kMinSplitK each. Shape-derived, so results never depend on threads.
constexpr int64_t kSplitTasks = 16;
constexpr int64_t kMinSplitK = 8 * kBlockK;
constexpr int64_t kMaxSplits = 8;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// C[m x n] (+)= op(A)[m x k] * B[k x n] with op(A)'s element (i, kk) at
// a[i * rs_a + kk * cs_a]; B and C row-major and contiguous. Work is split
// into (k piece, row panel, column panel) tasks; every task writes a
// disjoint region (of C, or of its piece's partial buffer), and pieces
// are summed in piece order, so the result is independent of how tasks
// map onto threads.
void BlockedGemm(const float* a, int64_t rs_a, int64_t cs_a, const float* b,
                float* c, int64_t m, int64_t k, int64_t n, bool accumulate,
                int64_t max_pieces) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      std::memset(c, 0, sizeof(float) * static_cast<size_t>(m * n));
    }
    return;
  }
  const simd::Kernels& kernels = simd::Active();
  const int64_t row_panels = CeilDiv(m, kBlockM);
  const int64_t col_panels = CeilDiv(n, kBlockN);
  const int64_t tiles = row_panels * col_panels;
  // Pieces are whole kBlockK blocks, so block boundaries stay global.
  const int64_t piece_k = CeilDiv(CeilDiv(k, max_pieces), kBlockK) * kBlockK;
  const int64_t pieces = CeilDiv(k, piece_k);

  // A single piece writes C directly; several write per-piece partials.
  // (Captured by pointer: a thread_local named inside the lambdas would
  // resolve to each pool thread's own copy.)
  thread_local std::vector<float> partials;
  float* out = c;
  if (pieces > 1) {
    partials.resize(static_cast<size_t>(pieces * m * n));
    out = partials.data();
  }
  const int64_t task_cost =
      std::min(m, kBlockM) * std::min(n, kBlockN) * std::min(k, piece_k);
  ParallelFor(pieces * tiles, GrainForCost(task_cost),
              [&](int64_t begin, int64_t end) {
    for (int64_t t = begin; t < end; ++t) {
      const int64_t piece = t / tiles;
      const int64_t i0 = (t % tiles) / col_panels * kBlockM;
      const int64_t j0 = (t % tiles) % col_panels * kBlockN;
      const int64_t rows = std::min(kBlockM, m - i0);
      const int64_t cols = std::min(kBlockN, n - j0);
      const int64_t k_begin = piece * piece_k;
      const int64_t k_end = std::min(k, k_begin + piece_k);
      float* c_tile = out + piece * m * n + i0 * n + j0;
      for (int64_t k0 = k_begin; k0 < k_end; k0 += kBlockK) {
        kernels.gemm_block(a + i0 * rs_a + k0 * cs_a, rs_a, cs_a,
                           b + k0 * n + j0, n, c_tile, n, rows,
                           std::min(kBlockK, k_end - k0), cols,
                           (accumulate && pieces == 1) || k0 > k_begin);
      }
    }
  });
  if (pieces == 1) return;

  // C (+)= partial_0 + partial_1 + ... in piece order, elementwise.
  const int64_t total = m * n;
  ParallelFor(total, GrainForCost(pieces), [&](int64_t begin, int64_t end) {
    float* sum = out + begin;
    for (int64_t p = 1; p < pieces; ++p) {
      kernels.add(out + p * total + begin, sum, end - begin);
    }
    if (accumulate) {
      kernels.add(sum, c + begin, end - begin);
    } else {
      kernels.copy(sum, c + begin, end - begin);
    }
  });
}

// Pieces for GemmTransA: enough to give small-output, long-reduction
// products (a conv layer's dW) kSplitTasks tasks.
int64_t SplitPieces(int64_t m, int64_t k, int64_t n) {
  const int64_t tiles = CeilDiv(m, kBlockM) * CeilDiv(n, kBlockN);
  if (tiles >= kSplitTasks) return 1;
  return std::clamp<int64_t>(std::min(CeilDiv(kSplitTasks, tiles),
                                      k / kMinSplitK),
                             1, kMaxSplits);
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool accumulate) {
  BlockedGemm(a, k, 1, b, c, m, k, n, accumulate, 1);
}

void GemmTransA(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  // A is stored K x M: op(A)'s row i is column i of the stored matrix.
  BlockedGemm(a, 1, m, b, c, m, k, n, accumulate, SplitPieces(m, k, n));
}

void GemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n, bool accumulate) {
  // B is stored N x K: transpose it once into the K x N layout the
  // microkernel streams (in every caller it is a small weight matrix).
  thread_local std::vector<float> packed;
  packed.resize(static_cast<size_t>(k * n));
  Transpose(b, n, k, packed.data());
  Gemm(a, packed.data(), c, m, k, n, accumulate);
}

void Transpose(const float* src, int64_t rows, int64_t cols, float* dst) {
  // Blocks of source rows per chunk; each chunk writes disjoint columns.
  constexpr int64_t kRowBlock = 64;
  ParallelFor(CeilDiv(rows, kRowBlock), GrainForCost(kRowBlock * cols),
              [&](int64_t begin, int64_t end) {
    const int64_t r_end = std::min(rows, end * kRowBlock);
    for (int64_t r = begin * kRowBlock; r < r_end; ++r) {
      const float* row = src + r * cols;
      for (int64_t j = 0; j < cols; ++j) dst[j * rows + r] = row[j];
    }
  });
}

void GemmReference(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        sum += a[i * k + kk] * b[kk * n + j];
      }
      c[i * n + j] = sum;
    }
  }
}

}  // namespace adr
