// Differential golden-kernel tests for the SIMD layer (tensor/simd.h).
//
// Every backend available on this build + machine (scalar always; avx2 or
// neon when present) is swept over remainder-lane shapes and compared
// against double-precision references or the scalar backend, with the
// per-kernel tolerances documented in tests/kernel_harness.h and DESIGN.md
// section 6.3. The suite closes with a finite-difference gradient check of
// ReuseConv2d running end-to-end on the active (SIMD) backend.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/reuse_conv2d.h"
#include "core/subvector_clustering.h"
#include "clustering/lsh.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "tests/clustered_forward_reference.h"
#include "tests/gradient_check.h"
#include "tests/kernel_harness.h"
#include "tests/matrix_reuse.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

using testutil::Backends;
using testutil::RandomVector;
using testutil::ReductionTolerance;
using testutil::RefGemm;
using testutil::RemainderSizes;

TEST(GoldenKernels, AtLeastScalarIsAvailable) {
  ASSERT_FALSE(Backends().empty());
  EXPECT_EQ(Backends().front(), &simd::Scalar());
  EXPECT_EQ(simd::Scalar().isa, simd::Isa::kScalar);
  // Every backend reports a sane lane width and a name.
  for (const simd::Kernels* backend : Backends()) {
    EXPECT_GE(backend->width, 1) << backend->name;
    EXPECT_NE(backend->name, nullptr);
  }
}

TEST(GoldenKernels, AddAndScaleMatchScalarBitwise) {
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t n : RemainderSizes()) {
      const std::vector<float> x = RandomVector(n, 400 + n);
      std::vector<float> y = RandomVector(n, 500 + n);
      std::vector<float> actual = y;
      backend->add(x.data(), actual.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(actual[i], y[i] + x[i])
            << backend->name << " add n=" << n << " i=" << i;
      }
      actual = y;
      backend->scale(0.37f, actual.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(actual[i], y[i] * 0.37f)
            << backend->name << " scale n=" << n << " i=" << i;
      }
    }
  }
}

// The cluster sums rely on gather_add and scatter_add giving exactly the
// bits of one add per row, in row order, on every backend: the running
// sums start from the destination and take each row in turn. Widths
// straddle every register count and partial-register tail; row lists
// repeat rows, and ids repeat clusters, both adjacent and far apart.
TEST(GoldenKernels, GatherAndScatterAddMatchOneAddPerRowBitwise) {
  constexpr int64_t kRows = 23;
  Rng rng(902);
  std::vector<int32_t> rows(40);
  for (int32_t& r : rows) r = static_cast<int32_t>(rng.NextBounded(kRows));
  rows[5] = rows[4];
  std::vector<int32_t> ids(kRows);
  for (int32_t& id : ids) id = static_cast<int32_t>(rng.NextBounded(6));
  ids[1] = ids[0];
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t n : RemainderSizes()) {
      const int64_t ldx = n + 3;  // rows not packed
      const std::vector<float> x = RandomVector(kRows * ldx, 900 + n);
      for (const int64_t count : {int64_t{0}, int64_t{1}, int64_t{7},
                                  static_cast<int64_t>(rows.size())}) {
        const std::vector<float> y0 = RandomVector(n + 2, 901 + n);
        std::vector<float> expected = y0;
        for (int64_t r = 0; r < count; ++r) {
          for (int64_t j = 0; j < n; ++j) {
            expected[static_cast<size_t>(j)] +=
                x[static_cast<size_t>(rows[static_cast<size_t>(r)] * ldx +
                                      j)];
          }
        }
        std::vector<float> actual = y0;
        backend->gather_add(x.data(), ldx, rows.data(), count, actual.data(),
                            n);
        ASSERT_EQ(std::memcmp(actual.data(), expected.data(),
                              actual.size() * sizeof(float)),
                  0)
            << backend->name << " gather_add n=" << n << " count=" << count;
      }

      const std::vector<float> y0 = RandomVector(6 * n + 2, 903 + n);
      std::vector<float> expected = y0;
      for (int64_t i = 0; i < kRows; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          expected[static_cast<size_t>(ids[static_cast<size_t>(i)] * n + j)] +=
              x[static_cast<size_t>(i * ldx + j)];
        }
      }
      std::vector<float> actual = y0;
      backend->scatter_add(x.data(), ldx, ids.data(), kRows, actual.data(), n);
      ASSERT_EQ(std::memcmp(actual.data(), expected.data(),
                            actual.size() * sizeof(float)),
                0)
          << backend->name << " scatter_add n=" << n;
    }
  }
}

TEST(GoldenKernels, CopyIsBitwiseExactAndLeavesTailUntouched) {
  // GatherHits in the cluster-reuse cache depends on copy being a pure
  // bitwise move on every backend.
  for (const simd::Kernels* backend : Backends()) {
    for (const int64_t n : RemainderSizes()) {
      const std::vector<float> x = RandomVector(n, 800 + n);
      std::vector<float> actual(static_cast<size_t>(n) + 4, 99.0f);
      backend->copy(x.data(), actual.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::memcmp(&actual[static_cast<size_t>(i)],
                              &x[static_cast<size_t>(i)], sizeof(float)),
                  0)
            << backend->name << " copy n=" << n << " i=" << i;
      }
      // No write past n.
      for (size_t i = static_cast<size_t>(n); i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], 99.0f) << backend->name << " copy n=" << n;
      }
    }
  }
}

TEST(GoldenKernels, GemmBlockSweepWithLeadingDims) {
  // Leading dimensions strictly larger than the logical widths catch
  // stride bugs; m sweeps every row-tile remainder (6-row tiles). A is
  // read both row-major (rs_a = lda, cs_a = 1) and transposed (rs_a = 1,
  // cs_a = lda, A stored k x lda); C is both accumulated into and
  // overwritten.
  const std::vector<int64_t> ms = {1, 2, 3, 4, 5, 6, 7, 8, 13};
  const std::vector<int64_t> ks = {1, 3, 17, 64};
  const std::vector<int64_t> ns = {1, 3, 7, 8, 15, 16, 17, 33};
  for (const simd::Kernels* backend : Backends()) {
    for (const bool transposed_a : {false, true}) {
      for (const bool accumulate : {true, false}) {
        for (const int64_t m : ms) {
          for (const int64_t k : ks) {
            for (const int64_t n : ns) {
              const int64_t ldb = n + 5, ldc = n + 2;
              const int64_t lda = (transposed_a ? m : k) + 3;
              const int64_t rs_a = transposed_a ? 1 : lda;
              const int64_t cs_a = transposed_a ? lda : 1;
              const std::vector<float> a_store = RandomVector(
                  (transposed_a ? k : m) * lda, 1000 + m * 31 + k * 7 + n);
              // Row-major m x k copy of op(A) for the double reference.
              std::vector<float> a(static_cast<size_t>(m * k));
              for (int64_t i = 0; i < m; ++i) {
                for (int64_t kk = 0; kk < k; ++kk) {
                  a[static_cast<size_t>(i * k + kk)] =
                      a_store[static_cast<size_t>(i * rs_a + kk * cs_a)];
                }
              }
              const std::vector<float> b =
                  RandomVector(k * ldb, 2000 + m + k * 13 + n * 3);
              const std::vector<float> c0 =
                  RandomVector(m * ldc, 3000 + m + k + n);
              std::vector<float> c = c0;
              backend->gemm_block(a_store.data(), rs_a, cs_a, b.data(), ldb,
                                  c.data(), ldc, m, k, n, accumulate);
              std::vector<double> expected, abs_bound;
              RefGemm(a.data(), k, b.data(), ldb, m, k, n, &expected,
                      &abs_bound);
              for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = 0; j < n; ++j) {
                  const double c_in =
                      accumulate ? c0[static_cast<size_t>(i * ldc + j)] : 0.0;
                  const double want =
                      expected[static_cast<size_t>(i * n + j)] + c_in;
                  // The add into C rounds at the magnitude of C too.
                  const double tolerance = ReductionTolerance(
                      abs_bound[static_cast<size_t>(i * n + j)] +
                          std::abs(c_in),
                      k + 1);
                  EXPECT_NEAR(c[static_cast<size_t>(i * ldc + j)], want,
                              tolerance)
                      << backend->name << " transposed_a=" << transposed_a
                      << " accumulate=" << accumulate << " m=" << m
                      << " k=" << k << " n=" << n << " at (" << i << ","
                      << j << ")";
                }
              }
              // Padding between rows must be untouched.
              for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = n; j < ldc; ++j) {
                  EXPECT_EQ(c[static_cast<size_t>(i * ldc + j)],
                            c0[static_cast<size_t>(i * ldc + j)])
                      << backend->name << " padding at (" << i << "," << j
                      << ")";
                }
              }
            }
          }
        }
      }
    }
  }
}

// Full Gemm/GemmTransA/GemmTransB under every backend vs the scalar
// triple-loop reference, at remainder and block-crossing shapes.
class GemmGoldenSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(GemmGoldenSweep, AllBackendsMatchReference) {
  const auto [m, k, n] = GetParam();
  const std::vector<float> a = RandomVector(m * k, 40 + m + k);
  const std::vector<float> b = RandomVector(k * n, 50 + k + n);
  std::vector<float> expected(static_cast<size_t>(m * n));
  GemmReference(a.data(), b.data(), expected.data(), m, k, n);
  // Column max |A||B| bound: one tolerance per output (worst case row).
  double abs_bound = 0.0;
  for (int64_t i = 0; i < m * k; ++i) abs_bound += std::abs(a[i]);
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<float> actual(static_cast<size_t>(m * n), 7.25f);
    Gemm(a.data(), b.data(), actual.data(), m, k, n);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  expected[static_cast<size_t>(i)],
                  1e-4 * (std::abs(expected[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " m=" << m << " k=" << k << " n=" << n
          << " flat index " << i;
    }
    // accumulate=true adds on top of the previous result.
    Gemm(a.data(), b.data(), actual.data(), m, k, n, /*accumulate=*/true);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  2.0 * expected[static_cast<size_t>(i)],
                  2e-4 * (std::abs(expected[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " accumulate, flat index " << i;
    }
  }
}

TEST_P(GemmGoldenSweep, TransposedVariantsMatchReference) {
  const auto [m, k, n] = GetParam();
  const std::vector<float> at = RandomVector(k * m, 60 + m + k);  // KxM
  const std::vector<float> b = RandomVector(k * n, 70 + k + n);   // KxN
  const std::vector<float> bt = RandomVector(n * k, 80 + k + n);  // NxK
  const std::vector<float> a = RandomVector(m * k, 90 + m + n);   // MxK
  // Explicit transposes for the reference.
  std::vector<float> a_mk(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < m; ++j) a_mk[j * k + i] = at[i * m + j];
  }
  std::vector<float> b_kn(static_cast<size_t>(k * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < k; ++j) b_kn[j * n + i] = bt[i * k + j];
  }
  std::vector<float> expected_ta(static_cast<size_t>(m * n));
  GemmReference(a_mk.data(), b.data(), expected_ta.data(), m, k, n);
  std::vector<float> expected_tb(static_cast<size_t>(m * n));
  GemmReference(a.data(), b_kn.data(), expected_tb.data(), m, k, n);
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<float> actual(static_cast<size_t>(m * n));
    GemmTransA(at.data(), b.data(), actual.data(), m, k, n);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  expected_ta[static_cast<size_t>(i)],
                  1e-4 * (std::abs(expected_ta[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " TransA flat index " << i;
    }
    // accumulate=true adds on top (GemmTransA's split-k partials too).
    GemmTransA(at.data(), b.data(), actual.data(), m, k, n,
               /*accumulate=*/true);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  2.0 * expected_ta[static_cast<size_t>(i)],
                  2e-4 * (std::abs(expected_ta[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " TransA accumulate, flat index " << i;
    }
    GemmTransB(a.data(), bt.data(), actual.data(), m, k, n);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  expected_tb[static_cast<size_t>(i)],
                  1e-4 * (std::abs(expected_tb[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " TransB flat index " << i;
    }
    GemmTransB(a.data(), bt.data(), actual.data(), m, k, n,
               /*accumulate=*/true);
    for (int64_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(actual[static_cast<size_t>(i)],
                  2.0 * expected_tb[static_cast<size_t>(i)],
                  2e-4 * (std::abs(expected_tb[static_cast<size_t>(i)]) +
                          std::sqrt(static_cast<double>(k))))
          << backend->name << " TransB accumulate, flat index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmGoldenSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 3, 7),
                      std::make_tuple(3, 7, 17), std::make_tuple(7, 17, 3),
                      std::make_tuple(17, 7, 1), std::make_tuple(17, 17, 17),
                      std::make_tuple(5, 129, 33),
                      std::make_tuple(65, 40, 31),
                      std::make_tuple(9, 257, 15),
                      // Long k, narrow output: GemmTransA splits k into
                      // pieces (4 uneven ones, then 8).
                      std::make_tuple(75, 4100, 32),
                      std::make_tuple(11, 9000, 2),
                      std::make_tuple(3, 2048, 17)));

TEST(GoldenKernels, LshHashSignsMatchDoubleProjection) {
  const int64_t dim = 37;  // remainder lanes in the projection GEMM
  const int num_hashes = 24;
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(dim, num_hashes, 17, &family).ok());
  const std::vector<float>& planes_t = family.hyperplanes_t();
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (int trial = 0; trial < 32; ++trial) {
      const std::vector<float> row =
          RandomVector(dim, 4000 + static_cast<uint64_t>(trial));
      const LshSignature sig = family.Hash(row.data());
      for (int h = 0; h < num_hashes; ++h) {
        double projection = 0.0;
        for (int64_t j = 0; j < dim; ++j) {
          projection +=
              static_cast<double>(row[static_cast<size_t>(j)]) *
              planes_t[static_cast<size_t>(j * family.plane_stride() + h)];
        }
        // Skip sign checks inside the rounding ambiguity band.
        if (std::abs(projection) < 1e-4) continue;
        const bool bit = (sig.words[h >> 6] >> (h & 63)) & 1;
        EXPECT_EQ(bit, projection > 0.0)
            << backend->name << " trial=" << trial << " h=" << h;
      }
    }
  }
}

TEST(GoldenKernels, LshBatchedHashMatchesPerRowOnEveryBackend) {
  const int64_t dim = 29, rows = 21;
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(dim, 48, 23, &family).ok());
  const std::vector<float> data = RandomVector(rows * dim, 4500);
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    std::vector<LshSignature> batched;
    family.HashRows(data.data(), rows, dim, &batched);
    for (int64_t i = 0; i < rows; ++i) {
      EXPECT_EQ(batched[static_cast<size_t>(i)],
                family.Hash(data.data() + i * dim))
          << backend->name << " row " << i;
    }
  }
}

// Rows for the project-and-sign sweep: Gaussian rows, rows with signed
// zeros among them, an all +0 and an all -0 row (every bit 0), and rows
// holding a NaN (NaN projections give bit 0). The gap between strided
// rows is NaN, so a read past a row's end would change its bits.
std::vector<float> HashSweepRows(int64_t rows, int64_t stride, int64_t dim,
                                 uint64_t seed) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> data = RandomVector(rows * stride, seed);
  for (int64_t i = 0; i < rows; ++i) {
    float* row = data.data() + i * stride;
    std::fill(row + dim, row + stride, nan);
    switch (i % 6) {
      case 1:
        for (int64_t j = 0; j < dim; j += 2) row[j] = j % 4 ? -0.0f : 0.0f;
        break;
      case 3:
        std::fill_n(row, dim, 0.0f);
        break;
      case 4:
        std::fill_n(row, dim, -0.0f);
        break;
      case 5:
        row[dim / 2] = nan;
        break;
      default:
        break;
    }
  }
  return data;
}

// The project-and-sign kernel, straight from each backend's table (with
// non-zero padding lanes) and through LshFamily::HashRows at 1 and 4
// threads, against the Gemm-based ReferenceHashRows on the same backend,
// bit for bit. H crosses every
// register and word boundary, L every 128-deep k block; row counts are
// not multiples of any row tile.
TEST(GoldenKernels, ProjectSignsMatchReferenceHashRowsBitwise) {
  struct ThreadCountGuard {
    int saved = ThreadPool::GlobalThreads();
    ~ThreadCountGuard() { ThreadPool::SetGlobalThreads(saved); }
  } thread_guard;
  const int hashes[] = {1, 7, 8, 12, 16, 20, 24, 63, 64, 65, 96, 128};
  const int64_t lengths[] = {1, 3, 10, 25, 128, 129, 300};
  const int64_t row_counts[] = {1, 13, 131};
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const int threads : {1, 4}) {
      ThreadPool::SetGlobalThreads(threads);
      for (const int h : hashes) {
        for (const int64_t dim : lengths) {
          LshFamily family;
          ASSERT_TRUE(LshFamily::Create(dim, h, 900 + h + dim, &family).ok());
          // The kernel must ignore padding lanes whatever they hold.
          std::vector<float> planes = family.hyperplanes_t();
          for (int64_t j = 0; j < dim; ++j) {
            for (int64_t p = h; p < family.plane_stride(); ++p) {
              planes[static_cast<size_t>(j * family.plane_stride() + p)] =
                  1.0f;
            }
          }
          for (const int64_t stride : {dim, dim + 3}) {
            for (const int64_t rows : row_counts) {
              const std::vector<float> data =
                  HashSweepRows(rows, stride, dim, 5000 + rows + stride);
              std::vector<LshSignature> expected;
              ReferenceHashRows(family, data.data(), rows, stride, &expected);
              std::vector<LshSignature> batched;
              family.HashRows(data.data(), rows, stride, &batched);
              std::vector<uint64_t> direct(static_cast<size_t>(2 * rows));
              backend->project_signs(data.data(), stride, planes.data(),
                                     family.plane_stride(), rows, dim, h,
                                     direct.data());
              for (int64_t i = 0; i < rows; ++i) {
                const size_t r = static_cast<size_t>(i);
                ASSERT_EQ(batched[r], expected[r])
                    << backend->name << " threads=" << threads << " H=" << h
                    << " L=" << dim << " stride=" << stride
                    << " rows=" << rows << " row " << i;
                const LshSignature from_table{{direct[2 * r],
                                               direct[2 * r + 1]}};
                ASSERT_EQ(from_table, expected[r])
                    << backend->name << " H=" << h << " L=" << dim
                    << " stride=" << stride << " rows=" << rows << " row "
                    << i;
                if (i % 6 >= 3) {
                  EXPECT_EQ(expected[r], LshSignature{})
                      << "zero and NaN rows give all-zero signatures";
                }
              }
            }
          }
        }
      }
    }
  }
}

// Pins the 128-deep block order of the projection sum. Over L = 129 Gemm
// computes (0 + A) + B, with A the FMA chain over the first 128 products
// and B = x * p the last one rounded alone. The row's last entry x is
// chosen so that x * p rounds to exactly -A while the exact x * p + A is
// positive: the blocked sum is 0 (bit clear), one unbroken FMA chain would
// give a positive projection (bit set).
TEST(GoldenKernels, ProjectSignsKeepGemmBlockOrder) {
  constexpr int64_t kDim = 129;
  LshFamily family;
  ASSERT_TRUE(LshFamily::Create(kDim, 8, 61, &family).ok());
  const int64_t stride = family.plane_stride();
  const std::vector<float>& planes = family.hyperplanes_t();
  const float p = planes[static_cast<size_t>(128 * stride)];
  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    bool found = false;
    for (uint64_t seed = 0; seed < 64 && !found; ++seed) {
      std::vector<float> row = RandomVector(kDim, 7000 + seed);
      std::vector<float> first_block(static_cast<size_t>(stride));
      Gemm(row.data(), planes.data(), first_block.data(), 1, 128, stride);
      const float a = first_block[0];
      float x = -a / p;
      for (int step = 0; step < 8; ++step) x = std::nextafter(x, -HUGE_VALF);
      for (int step = 0; step < 16 && !found; ++step) {
        x = std::nextafter(x, HUGE_VALF);
        const float product = x * p;
        found = product == -a &&
                static_cast<double>(x) * p + static_cast<double>(a) > 0.0;
      }
      if (!found) continue;
      row[128] = x;
      std::vector<LshSignature> expected, actual;
      ReferenceHashRows(family, row.data(), 1, kDim, &expected);
      ASSERT_EQ(expected[0].words[0] & 1, 0u) << backend->name;
      family.HashRows(row.data(), 1, kDim, &actual);
      EXPECT_EQ(actual[0], expected[0]) << backend->name << " seed " << seed;
    }
    EXPECT_TRUE(found) << backend->name << ": no row with a tie found";
  }
}

TEST(GoldenKernels, ClusteredMatmulAndBackwardScalarVsSimd) {
  const int64_t n = 40, k = 20, m = 6, l = 7;  // blocks of length 7, 7, 6
  Rng rng(31);
  Tensor x = Tensor::RandomGaussian(Shape({n, k}), &rng);
  Tensor weight = Tensor::RandomGaussian(Shape({k, m}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);
  auto families = BlockLshFamilies::Create(k, l, 12, 37);
  ASSERT_TRUE(families.ok());

  simd::ScopedKernelsOverride scalar_override(simd::Scalar());
  MatrixForwardResult scalar_forward =
      MatrixForward(*families, x.data(), n, weight, nullptr, n, nullptr);
  MatrixBackwardResult scalar_backward =
      MatrixBackward(scalar_forward.clustering, weight, dy);

  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    MatrixForwardResult forward =
        MatrixForward(*families, x.data(), n, weight, nullptr, n, nullptr);
    ASSERT_EQ(forward.clustering.blocks.size(),
              scalar_forward.clustering.blocks.size());
    for (size_t bi = 0; bi < forward.clustering.blocks.size(); ++bi) {
      EXPECT_EQ(forward.clustering.blocks[bi].clustering.assignment,
                scalar_forward.clustering.blocks[bi].clustering.assignment)
          << backend->name << " block " << bi
          << ": clustering diverged between backends";
    }
    EXPECT_LT(MaxAbsDiff(forward.y_rows, scalar_forward.y_rows), 1e-3f)
        << backend->name;

    MatrixBackwardResult backward =
        MatrixBackward(forward.clustering, weight, dy);
    EXPECT_LT(MaxAbsDiff(backward.grad_weight, scalar_backward.grad_weight),
              1e-3f)
        << backend->name;
    EXPECT_LT(MaxAbsDiff(backward.grad_x, scalar_backward.grad_x), 1e-3f)
        << backend->name;
    EXPECT_LT(MaxAbsDiff(backward.grad_bias, scalar_backward.grad_bias),
              1e-3f)
        << backend->name;
  }
}

// End-to-end: finite-difference gradient check of ReuseConv2d with the
// active (SIMD) backend, near-singleton clustering so the reuse backward
// is the exact gradient of the clustered forward.
TEST(GoldenKernels, ReuseConv2dGradientCheckWithSimdActive) {
  Conv2dConfig config;
  config.in_channels = 2;
  config.out_channels = 3;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 5;
  config.in_width = 5;
  ReuseConfig reuse;
  reuse.sub_vector_length = 0;
  reuse.num_hashes = 96;
  Rng rng(41);
  ReuseConv2d layer("conv_simd", config, reuse, &rng);
  Rng data_rng(42);
  Tensor input = Tensor::RandomGaussian(Shape({1, 2, 5, 5}), &data_rng);
  testutil::CheckGradients(&layer, input, /*tolerance=*/5e-2, /*epsilon=*/1e-3f,
                           /*seed=*/7, /*training=*/true);
}

}  // namespace
}  // namespace adr
