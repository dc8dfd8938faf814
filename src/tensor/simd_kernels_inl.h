// Generic implementations of the simd::Kernels primitives, templated on a
// per-ISA vector-ops struct. Each backend translation unit (simd_scalar.cc,
// simd_avx2.cc, simd_neon.cc) includes this header and instantiates
// MakeKernels with its Ops type; the AVX2 unit alone is compiled with
// -mavx2 -mfma, so the intrinsics below only ever exist there.
//
// An Ops type provides:
//   using Reg            — the vector register type (float for scalar);
//   static constexpr int kWidth — float lanes per register;
//   Zero(), Load(p), Store(p, v), Broadcast(s), Add(a, b), Mul(a, b),
//   Fma(a, b, acc) = a * b + acc, and PositiveMask(v): bit j set iff
//   lane j is > 0 (false for NaN).
//
// Remainder lanes (n not a multiple of kWidth) run in scalar tail loops;
// the golden harness sweeps such shapes explicitly.

#ifndef ADR_TENSOR_SIMD_KERNELS_INL_H_
#define ADR_TENSOR_SIMD_KERNELS_INL_H_

#include <algorithm>
#include <cstdint>

#include "tensor/simd.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

namespace adr::simd::detail {

struct ScalarOps {
  using Reg = float;
  static constexpr int kWidth = 1;
  static Reg Zero() { return 0.0f; }
  static Reg Load(const float* p) { return *p; }
  static void Store(float* p, Reg v) { *p = v; }
  static Reg Broadcast(float s) { return s; }
  static Reg Add(Reg a, Reg b) { return a + b; }
  static Reg Mul(Reg a, Reg b) { return a * b; }
  static Reg Fma(Reg a, Reg b, Reg acc) { return a * b + acc; }
  static uint32_t PositiveMask(Reg v) { return v > 0.0f ? 1u : 0u; }
};

#if defined(__AVX2__) && defined(__FMA__)
struct Avx2Ops {
  using Reg = __m256;
  static constexpr int kWidth = 8;
  static Reg Zero() { return _mm256_setzero_ps(); }
  static Reg Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg Broadcast(float s) { return _mm256_set1_ps(s); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg Fma(Reg a, Reg b, Reg acc) { return _mm256_fmadd_ps(a, b, acc); }
  static uint32_t PositiveMask(Reg v) {
    return static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ)));
  }
};
#endif  // __AVX2__ && __FMA__

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
struct NeonOps {
  using Reg = float32x4_t;
  static constexpr int kWidth = 4;
  static Reg Zero() { return vdupq_n_f32(0.0f); }
  static Reg Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, Reg v) { vst1q_f32(p, v); }
  static Reg Broadcast(float s) { return vdupq_n_f32(s); }
  static Reg Add(Reg a, Reg b) { return vaddq_f32(a, b); }
  static Reg Mul(Reg a, Reg b) { return vmulq_f32(a, b); }
  static Reg Fma(Reg a, Reg b, Reg acc) { return vfmaq_f32(acc, a, b); }
  static uint32_t PositiveMask(Reg v) {
    static const uint32_t kLaneBits[4] = {1, 2, 4, 8};
    return vaddvq_u32(
        vandq_u32(vcgtq_f32(v, vdupq_n_f32(0.0f)), vld1q_u32(kLaneBits)));
  }
};
#endif  // __ARM_NEON

template <typename Ops>
void AddImpl(const float* x, float* y, int64_t n) {
  constexpr int64_t kW = Ops::kWidth;
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    Ops::Store(y + i, Ops::Add(Ops::Load(y + i), Ops::Load(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

template <typename Ops>
void CopyImpl(const float* x, float* y, int64_t n) {
  constexpr int64_t kW = Ops::kWidth;
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    Ops::Store(y + i, Ops::Load(x + i));
  }
  for (; i < n; ++i) y[i] = x[i];
}

template <typename Ops>
void ScaleImpl(float s, float* y, int64_t n) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
  const Reg sv = Ops::Broadcast(s);
  int64_t i = 0;
  for (; i + kW <= n; i += kW) {
    Ops::Store(y + i, Ops::Mul(Ops::Load(y + i), sv));
  }
  for (; i < n; ++i) y[i] *= s;
}

// y[0, V * kWidth) += the listed rows of x, one row at a time, with the
// V registers of running sums held across all rows. Lane arithmetic is
// AddImpl's, in the same order, so the bits are those of one add per row.
template <typename Ops, int V>
void GatherAddColumns(const float* x, int64_t ldx, const int32_t* rows,
                      int64_t count, float* y) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
  Reg acc[V];
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) acc[v] = Ops::Load(y + v * kW);
  for (int64_t r = 0; r < count; ++r) {
    const float* row = x + int64_t{rows[r]} * ldx;
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      acc[v] = Ops::Add(acc[v], Ops::Load(row + v * kW));
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < V; ++v) Ops::Store(y + v * kW, acc[v]);
}

// Registers of columns one pass over the rows keeps (64 floats on AVX2).
constexpr int kGatherRegs = 8;

template <typename Ops>
void GatherAddImpl(const float* x, int64_t ldx, const int32_t* rows,
                   int64_t count, float* y, int64_t n) {
  constexpr int64_t kW = Ops::kWidth;
  int64_t j = 0;
  for (; j + kGatherRegs * kW <= n; j += kGatherRegs * kW) {
    GatherAddColumns<Ops, kGatherRegs>(x + j, ldx, rows, count, y + j);
  }
  const int64_t full = (n - j) / kW;
  const float* x_j = x + j;
  float* y_j = y + j;
  switch (full) {
    case 7:
      GatherAddColumns<Ops, 7>(x_j, ldx, rows, count, y_j);
      break;
    case 6:
      GatherAddColumns<Ops, 6>(x_j, ldx, rows, count, y_j);
      break;
    case 5:
      GatherAddColumns<Ops, 5>(x_j, ldx, rows, count, y_j);
      break;
    case 4:
      GatherAddColumns<Ops, 4>(x_j, ldx, rows, count, y_j);
      break;
    case 3:
      GatherAddColumns<Ops, 3>(x_j, ldx, rows, count, y_j);
      break;
    case 2:
      GatherAddColumns<Ops, 2>(x_j, ldx, rows, count, y_j);
      break;
    case 1:
      GatherAddColumns<Ops, 1>(x_j, ldx, rows, count, y_j);
      break;
    default:
      break;
  }
  // Remainder lanes: one scalar running sum each, rows in the same order.
  for (j += full * kW; j < n; ++j) {
    float sum = y[j];
    for (int64_t r = 0; r < count; ++r) sum += x[int64_t{rows[r]} * ldx + j];
    y[j] = sum;
  }
}

// One add per row, in row order, with AddImpl inlined: rows of one
// cluster stay a chain of adds through y, so the bits are AddImpl's.
template <typename Ops>
void ScatterAddImpl(const float* x, int64_t ldx, const int32_t* ids,
                    int64_t count, float* y, int64_t n) {
  for (int64_t i = 0; i < count; ++i) {
    AddImpl<Ops>(x + i * ldx, y + int64_t{ids[i]} * n, n);
  }
}

// Rows of C per microkernel tile. 6 rows x 2 registers keeps 12
// accumulators, the two B registers and one broadcast inside the 16
// vector registers of AVX2.
constexpr int kGemmRows = 6;

// C[R x V*kWidth] (=|+=) A[R x k] * B[k x V*kWidth]: R rows against V
// vector registers of columns. The accumulators stay in registers across
// the whole k loop, start from zero, take one FMA per k in ascending
// order, and are added to C (or to zero when overwriting) once at the
// end, so each element's arithmetic depends only on k.
template <typename Ops, int R, int V>
inline void GemmTile(const float* a, int64_t rs_a, int64_t cs_a,
                     const float* b, int64_t ldb, float* c, int64_t ldc,
                     int64_t k, bool accumulate) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
  Reg acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = Ops::Zero();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* a_k = a + kk * cs_a;
    const float* b_k = b + kk * ldb;
    Reg bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = Ops::Load(b_k + v * kW);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const Reg av = Ops::Broadcast(a_k[r * rs_a]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) acc[r][v] = Ops::Fma(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      float* c_v = c + r * ldc + v * kW;
      const Reg base = accumulate ? Ops::Load(c_v) : Ops::Zero();
      Ops::Store(c_v, Ops::Add(base, acc[r][v]));
    }
  }
}

// One band of R rows of C across all n columns: tiles of two registers,
// then one register, then a scalar tail. The tail follows the same
// per-element order as the vector tiles.
template <typename Ops, int R>
void GemmRowBand(const float* a, int64_t rs_a, int64_t cs_a, const float* b,
                 int64_t ldb, float* c, int64_t ldc, int64_t k, int64_t n,
                 bool accumulate) {
  constexpr int64_t kW = Ops::kWidth;
  int64_t j = 0;
  for (; j + 2 * kW <= n; j += 2 * kW) {
    GemmTile<Ops, R, 2>(a, rs_a, cs_a, b + j, ldb, c + j, ldc, k, accumulate);
  }
  if (j + kW <= n) {
    GemmTile<Ops, R, 1>(a, rs_a, cs_a, b + j, ldb, c + j, ldc, k, accumulate);
    j += kW;
  }
  for (; j < n; ++j) {
    // R independent chains, so the FMA latency overlaps across rows.
    float acc[R];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) acc[r] = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* a_k = a + kk * cs_a;
      const float b_kj = b[kk * ldb + j];
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) acc[r] += a_k[r * rs_a] * b_kj;
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      float* c_rj = c + r * ldc + j;
      *c_rj = (accumulate ? *c_rj : 0.0f) + acc[r];
    }
  }
}

template <typename Ops>
void GemmBlockImpl(const float* a, int64_t rs_a, int64_t cs_a, const float* b,
                   int64_t ldb, float* c, int64_t ldc, int64_t m, int64_t k,
                   int64_t n, bool accumulate) {
  int64_t i = 0;
  for (; i + kGemmRows <= m; i += kGemmRows) {
    GemmRowBand<Ops, kGemmRows>(a + i * rs_a, rs_a, cs_a, b, ldb,
                                c + i * ldc, ldc, k, n, accumulate);
  }
  const float* a_i = a + i * rs_a;
  float* c_i = c + i * ldc;
  switch (m - i) {
    case 5:
      GemmRowBand<Ops, 5>(a_i, rs_a, cs_a, b, ldb, c_i, ldc, k, n, accumulate);
      break;
    case 4:
      GemmRowBand<Ops, 4>(a_i, rs_a, cs_a, b, ldb, c_i, ldc, k, n, accumulate);
      break;
    case 3:
      GemmRowBand<Ops, 3>(a_i, rs_a, cs_a, b, ldb, c_i, ldc, k, n, accumulate);
      break;
    case 2:
      GemmRowBand<Ops, 2>(a_i, rs_a, cs_a, b, ldb, c_i, ldc, k, n, accumulate);
      break;
    case 1:
      GemmRowBand<Ops, 1>(a_i, rs_a, cs_a, b, ldb, c_i, ldc, k, n, accumulate);
      break;
    default:
      break;
  }
}

// Rows per project-and-sign tile for V registers of hash columns: R * V
// accumulators, V plane registers and one broadcast fit in AVX2's 16.
template <int V>
constexpr int kSignTileRows = V == 1 ? 8 : (V == 2 ? 6 : 4);

// acc[r][v] = sum over kk in [k0, k1) of rows[r][kk] * planes[kk][v],
// from zero, one FMA per kk in ascending order: GemmTile's arithmetic.
template <typename Ops, int R, int V>
inline void ProjectRows(const float* const (&rows)[R], const float* planes,
                        int64_t ldp, int64_t k0, int64_t k1,
                        typename Ops::Reg (&acc)[R][V]) {
  using Reg = typename Ops::Reg;
  constexpr int64_t kW = Ops::kWidth;
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 3
    for (int v = 0; v < V; ++v) acc[r][v] = Ops::Zero();
  }
  for (int64_t kk = k0; kk < k1; ++kk) {
    const float* p_k = planes + kk * ldp;
    Reg pv[V];
#pragma GCC unroll 3
    for (int v = 0; v < V; ++v) pv[v] = Ops::Load(p_k + v * kW);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const Reg av = Ops::Broadcast(rows[r][kk]);
#pragma GCC unroll 3
      for (int v = 0; v < V; ++v) acc[r][v] = Ops::Fma(av, pv[v], acc[r][v]);
    }
  }
}

// The projections of k > kGemmDepthBlock, summed as Gemm sums them: each
// 128-deep block from zero in registers, block sums added in order to 0.
// Out of line so the common single-block tile keeps its accumulators in
// registers.
template <typename Ops, int R, int V>
[[gnu::noinline]] void ProjectDeepRows(const float* const (&rows)[R],
                                       const float* planes, int64_t ldp,
                                       int64_t k,
                                       float (&sums)[R][V * Ops::kWidth]) {
  using Reg = typename Ops::Reg;
  constexpr int kW = Ops::kWidth;
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) Ops::Store(&sums[r][v * kW], Ops::Zero());
  }
  for (int64_t k0 = 0; k0 < k; k0 += kGemmDepthBlock) {
    Reg part[R][V];
    ProjectRows<Ops, R, V>(rows, planes, ldp, k0,
                           std::min(k, k0 + kGemmDepthBlock), part);
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < V; ++v) {
        float* sum = &sums[r][v * kW];
        Ops::Store(sum, Ops::Add(Ops::Load(sum), part[r][v]));
      }
    }
  }
}

// Signs of hash columns [col, col + V * kWidth) for up to R rows starting
// at a; `rows` < R repeats the last row and stores only the first `rows`.
// `keep` clears the bits of padding lanes (col + lane >= n). Projections
// never leave registers on the single-block path: compare, movemask, OR.
template <typename Ops, int R, int V>
void ProjectSignTile(const float* a, int64_t lda, int64_t rows,
                     const float* planes, int64_t ldp, int64_t k, int col,
                     uint64_t keep, uint64_t* signs) {
  using Reg = typename Ops::Reg;
  constexpr int kW = Ops::kWidth;
  const float* row[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    row[r] = a + std::min<int64_t>(r, rows - 1) * lda;
  }
  planes += col;
  // Gemm stores 0 + sum for the first block; 0 + s > 0 exactly when
  // s > 0 (they differ only for s = -0), so the sign needs no add.
  Reg acc[R][V];
  if (k <= kGemmDepthBlock) {
    ProjectRows<Ops, R, V>(row, planes, ldp, 0, k, acc);
  } else {
    float sums[R][V * kW];
    ProjectDeepRows<Ops, R, V>(row, planes, ldp, k, sums);
    for (int r = 0; r < R; ++r) {
      for (int v = 0; v < V; ++v) acc[r][v] = Ops::Load(&sums[r][v * kW]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    if (r == rows) break;
    uint64_t bits = 0;
#pragma GCC unroll 3
    for (int v = 0; v < V; ++v) {
      bits |= uint64_t{Ops::PositiveMask(acc[r][v])} << (v * kW);
    }
    // Columns stay below kMaxSignBits, so the shift never drops a kept bit.
    const unsigned __int128 placed =
        static_cast<unsigned __int128>(bits & keep) << col;
    signs[2 * r] |= static_cast<uint64_t>(placed);
    signs[2 * r + 1] |= static_cast<uint64_t>(placed >> 64);
  }
}

template <typename Ops, int V>
void ProjectSignColumns(const float* a, int64_t lda, const float* planes,
                        int64_t ldp, int64_t m, int64_t k, int col, int n,
                        uint64_t* signs) {
  constexpr int R = kSignTileRows<V>;
  constexpr int kBits = V * Ops::kWidth;
  const uint64_t keep =
      n - col >= kBits ? ~uint64_t{0} : (uint64_t{1} << (n - col)) - 1;
  for (int64_t i = 0; i < m; i += R) {
    // Rows at a long stride defeat the hardware prefetcher: fetch the
    // first and last line of each row four tiles ahead.
    for (int64_t r = i + 4 * R; r < std::min(m, i + 5 * R); ++r) {
      __builtin_prefetch(a + r * lda);
      __builtin_prefetch(a + r * lda + k - 1);
    }
    ProjectSignTile<Ops, R, V>(a + i * lda, lda, std::min<int64_t>(R, m - i),
                               planes, ldp, k, col, keep, signs + 2 * i);
  }
}

// Hash columns in chunks of three registers, then the 2- or 1-register
// rest; each chunk ORs its bits into the zeroed signatures.
template <typename Ops>
void ProjectSignsImpl(const float* a, int64_t lda, const float* planes,
                      int64_t ldp, int64_t m, int64_t k, int n,
                      uint64_t* signs) {
  constexpr int kW = Ops::kWidth;
  std::fill_n(signs, 2 * m, uint64_t{0});
  const int regs = (n + kW - 1) / kW;
  int reg = 0;
  for (; reg + 3 <= regs; reg += 3) {
    ProjectSignColumns<Ops, 3>(a, lda, planes, ldp, m, k, reg * kW, n, signs);
  }
  if (regs - reg == 2) {
    ProjectSignColumns<Ops, 2>(a, lda, planes, ldp, m, k, reg * kW, n, signs);
  } else if (regs - reg == 1) {
    ProjectSignColumns<Ops, 1>(a, lda, planes, ldp, m, k, reg * kW, n, signs);
  }
}

template <typename Ops>
Kernels MakeKernels(Isa isa, const char* name) {
  Kernels kernels;
  kernels.isa = isa;
  kernels.name = name;
  kernels.width = Ops::kWidth;
  kernels.add = &AddImpl<Ops>;
  kernels.copy = &CopyImpl<Ops>;
  kernels.scale = &ScaleImpl<Ops>;
  kernels.gather_add = &GatherAddImpl<Ops>;
  kernels.scatter_add = &ScatterAddImpl<Ops>;
  kernels.gemm_block = &GemmBlockImpl<Ops>;
  kernels.project_signs = &ProjectSignsImpl<Ops>;
  return kernels;
}

}  // namespace adr::simd::detail

#endif  // ADR_TENSOR_SIMD_KERNELS_INL_H_
