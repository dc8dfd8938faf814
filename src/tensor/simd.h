// Portable SIMD kernel layer for the reuse hot paths.
//
// Every dense inner loop the library spends its time in (the GEMM
// microkernel, the LSH project-and-sign kernel, the cluster
// gather/scatter adds and the cluster sums of forward and backward)
// funnels through the small table of primitives below. The table has one
// implementation per instruction set:
//
//   scalar — always built, always tested; the golden reference the
//            differential harness (tests/golden_kernels_test.cc) compares
//            every vector backend against.
//   avx2   — x86-64 AVX2 + FMA, compiled in its own translation unit with
//            -mavx2 -mfma so no AVX instruction can leak into generic
//            code paths; selected only when the running CPU reports both
//            features.
//   neon   — aarch64 NEON (baseline on that architecture).
//
// Backend resolution, highest priority first:
//   1. ScopedKernelsOverride (tests pinning a specific backend);
//   2. the ADR_SIMD environment variable: "0"/"off"/"scalar" forces the
//      scalar backend at runtime (read once, like ADR_THREADS);
//   3. the best backend that was compiled in (-DADR_SIMD=OFF builds none)
//      AND is supported by the running CPU.
//
// Numerical contract: backends may differ from each other in the final
// few ULPs (vector lanes regroup the accumulation order), but every
// backend is deterministic — same input, same shape, same backend gives
// bit-identical output on any thread count. Per-kernel tolerances are
// stated in DESIGN.md section 6.3 and enforced by the golden harness.

#ifndef ADR_TENSOR_SIMD_H_
#define ADR_TENSOR_SIMD_H_

#include <cstdint>
#include <vector>

namespace adr::simd {

/// \brief Depth of the k blocks a GEMM sums from zero in registers before
/// adding the block sum to its running result (see tensor/gemm.h).
inline constexpr int64_t kGemmDepthBlock = 128;

/// \brief project_signs reads hyperplanes whose rows are padded to a
/// multiple of this many floats: whole registers on every backend.
inline constexpr int64_t kProjectionPad = 8;

/// \brief Most sign bits project_signs packs per row (two 64-bit words).
inline constexpr int kMaxSignBits = 128;

enum class Isa { kScalar, kAvx2, kNeon };

/// \brief One backend's implementations of the hot-path primitives.
struct Kernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";  ///< "scalar", "avx2" or "neon"
  int width = 1;                ///< float lanes per vector register

  /// y[i] += x[i]
  void (*add)(const float* x, float* y, int64_t n);
  /// y[i] = x[i]; bitwise-exact on every backend (the cluster-cache
  /// gather and other row moves route through this instead of memcpy so
  /// the wide loads/stores stay in the dispatched ISA).
  void (*copy)(const float* x, float* y, int64_t n);
  /// y[i] *= s
  void (*scale)(float s, float* y, int64_t n);
  /// y[j] += x[rows[0] * ldx + j], then += x[rows[1] * ldx + j], ... for
  /// every listed row in the order given, j < n: bitwise what `count`
  /// calls of `add` give, but the running sum stays in registers across
  /// the rows. The reuse backward sums each cluster's rows with this.
  void (*gather_add)(const float* x, int64_t ldx, const int32_t* rows,
                     int64_t count, float* y, int64_t n);
  /// y[ids[i] * n + j] += x[i * ldx + j] for i = 0, 1, ... count - 1 in
  /// order, j < n: bitwise what one `add` per row gives, in one call. The
  /// clusterer adds a tile's rows to their clusters' sums with this.
  void (*scatter_add)(const float* x, int64_t ldx, const int32_t* ids,
                      int64_t count, float* y, int64_t n);
  /// C[m x n] (+)= A[m x k] * B[k x n]: the register-blocked FMA
  /// microkernel behind every GEMM (tensor/gemm.h). A's element (i, kk)
  /// is a[i * rs_a + kk * cs_a], so A and A^T layouts both stream without
  /// packing; B and C are row-major with leading dimensions ldb/ldc >= n.
  /// Each output element sums its k products from zero in ascending-k
  /// order, then is added to C (accumulate) or stored as 0 + sum, which is
  /// bitwise what zero-filling C and accumulating gives. For a fixed
  /// backend the result depends only on the operands.
  void (*gemm_block)(const float* a, int64_t rs_a, int64_t cs_a,
                     const float* b, int64_t ldb, float* c, int64_t ldc,
                     int64_t m, int64_t k, int64_t n, bool accumulate);
  /// Packed LSH signs of m rows: bit h of row i is set iff the projection
  /// sum_kk a[i * lda + kk] * planes[kk * ldp + h] is > 0, for h < n.
  /// planes is k x ldp (dimension-major hyperplanes), ldp a multiple of
  /// kProjectionPad and >= n; 1 <= n <= kMaxSignBits. Row i's signs go to
  /// signs[2 * i] (bits 0-63) and signs[2 * i + 1] (bits 64-127); unused
  /// bits are 0. Each projection is summed exactly as Gemm sums element
  /// (i, h) of A * planes (128-deep k blocks from zero in ascending k,
  /// block sums added in order to 0), so the bits equal Gemm-then-compare
  /// on the same backend. Padding lanes h >= n are computed and ignored;
  /// a NaN projection gives 0. Runs on the calling thread; callers split
  /// rows across threads.
  void (*project_signs)(const float* a, int64_t lda, const float* planes,
                        int64_t ldp, int64_t m, int64_t k, int n,
                        uint64_t* signs);
};

/// \brief The scalar backend. Always available.
const Kernels& Scalar();

/// \brief The backend hot kernels should use, resolved per the rules in
/// the header comment. Safe to call from pool threads.
const Kernels& Active();

/// \brief Every backend usable on this build + CPU, scalar first. The
/// differential harness iterates this list.
const std::vector<const Kernels*>& AllAvailable();

/// \brief RAII override of Active() for differential tests. Install from
/// the main thread between pieces of work, never concurrently with
/// running kernels.
class ScopedKernelsOverride {
 public:
  explicit ScopedKernelsOverride(const Kernels& kernels);
  ~ScopedKernelsOverride();
  ScopedKernelsOverride(const ScopedKernelsOverride&) = delete;
  ScopedKernelsOverride& operator=(const ScopedKernelsOverride&) = delete;

 private:
  const Kernels* previous_;
};

}  // namespace adr::simd

#endif  // ADR_TENSOR_SIMD_H_
