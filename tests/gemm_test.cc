// Tests for the blocked GEMM kernels against the naive reference,
// including a parameterized sweep over awkward (non-block-aligned) sizes,
// and Gemm's bitwise contract against the row-slice reference kernel
// (tests/gemm_row_slice_reference.h) on every backend.

#include <cstring>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tests/gemm_row_slice_reference.h"
#include "tests/kernel_harness.h"
#include "util/rng.h"

namespace adr {
namespace {

Tensor RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandomGaussian(Shape({rows, cols}), &rng);
}

TEST(GemmTest, TinyKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Tensor a(Shape({2, 2}), {1, 2, 3, 4});
  Tensor b(Shape({2, 2}), {5, 6, 7, 8});
  Tensor c(Shape({2, 2}));
  Gemm(a.data(), b.data(), c.data(), 2, 2, 2);
  EXPECT_EQ(c.at(0, 0), 19.0f);
  EXPECT_EQ(c.at(0, 1), 22.0f);
  EXPECT_EQ(c.at(1, 0), 43.0f);
  EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(GemmTest, AccumulateAddsIntoC) {
  Tensor a(Shape({1, 1}), {2.0f});
  Tensor b(Shape({1, 1}), {3.0f});
  Tensor c(Shape({1, 1}), {10.0f});
  Gemm(a.data(), b.data(), c.data(), 1, 1, 1, /*accumulate=*/true);
  EXPECT_EQ(c.at(0), 16.0f);
  Gemm(a.data(), b.data(), c.data(), 1, 1, 1, /*accumulate=*/false);
  EXPECT_EQ(c.at(0), 6.0f);
}

TEST(GemmTest, IdentityLeavesMatrixUnchanged) {
  const int64_t n = 37;
  Tensor identity(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) identity.at(i, i) = 1.0f;
  Tensor x = RandomMatrix(n, n, 5);
  Tensor y(Shape({n, n}));
  Gemm(identity.data(), x.data(), y.data(), n, n, n);
  EXPECT_TRUE(AllClose(y, x));
}

TEST(GemmTransATest, MatchesExplicitTranspose) {
  const int64_t m = 13, k = 29, n = 17;
  Tensor a = RandomMatrix(k, m, 1);  // stored KxM
  Tensor b = RandomMatrix(k, n, 2);
  // Explicit transpose then regular GEMM.
  Tensor at(Shape({m, k}));
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < m; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor expected(Shape({m, n}));
  GemmReference(at.data(), b.data(), expected.data(), m, k, n);
  Tensor actual(Shape({m, n}));
  GemmTransA(a.data(), b.data(), actual.data(), m, k, n);
  EXPECT_TRUE(AllClose(actual, expected, 1e-4f, 1e-5f));
}

TEST(GemmTransBTest, MatchesExplicitTranspose) {
  const int64_t m = 11, k = 23, n = 19;
  Tensor a = RandomMatrix(m, k, 3);
  Tensor b = RandomMatrix(n, k, 4);  // stored NxK
  Tensor bt(Shape({k, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < k; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor expected(Shape({m, n}));
  GemmReference(a.data(), bt.data(), expected.data(), m, k, n);
  Tensor actual(Shape({m, n}));
  GemmTransB(a.data(), b.data(), actual.data(), m, k, n);
  EXPECT_TRUE(AllClose(actual, expected, 1e-4f, 1e-5f));
}

TEST(GemmTransATest, AccumulateAddsIntoC) {
  Tensor a(Shape({1, 1}), {2.0f});
  Tensor b(Shape({1, 1}), {3.0f});
  Tensor c(Shape({1, 1}), {1.0f});
  GemmTransA(a.data(), b.data(), c.data(), 1, 1, 1, /*accumulate=*/true);
  EXPECT_EQ(c.at(0), 7.0f);
}

TEST(GemmTransBTest, AccumulateAddsIntoC) {
  Tensor a(Shape({1, 1}), {2.0f});
  Tensor b(Shape({1, 1}), {3.0f});
  Tensor c(Shape({1, 1}), {1.0f});
  GemmTransB(a.data(), b.data(), c.data(), 1, 1, 1, /*accumulate=*/true);
  EXPECT_EQ(c.at(0), 7.0f);
}

// Parameterized sweep: blocked kernels must agree with the reference on
// sizes around the block boundaries (64, 128, 256) and degenerate sizes.
class GemmSizeSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(GemmSizeSweep, BlockedMatchesReference) {
  const auto [m, k, n] = GetParam();
  Tensor a = RandomMatrix(m, k, 10 + static_cast<uint64_t>(m));
  Tensor b = RandomMatrix(k, n, 20 + static_cast<uint64_t>(n));
  Tensor expected(Shape({m, n}));
  GemmReference(a.data(), b.data(), expected.data(), m, k, n);
  Tensor actual(Shape({m, n}));
  Gemm(a.data(), b.data(), actual.data(), m, k, n);
  EXPECT_TRUE(AllClose(actual, expected, 1e-4f, 1e-5f))
      << "m=" << m << " k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSizeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 64, 1),
                      std::make_tuple(7, 5, 3), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 129, 257),
                      std::make_tuple(63, 127, 255),
                      std::make_tuple(128, 1, 128),
                      std::make_tuple(3, 300, 2),
                      std::make_tuple(100, 75, 64),
                      // Remainder lanes: every combination of dimensions
                      // that straddle the 4-row tile and 8/16-lane vectors.
                      std::make_tuple(1, 3, 7), std::make_tuple(3, 7, 17),
                      std::make_tuple(7, 17, 1), std::make_tuple(17, 1, 3),
                      std::make_tuple(17, 17, 17),
                      std::make_tuple(7, 3, 17)));

// GemmReference itself is validated independently of any vector kernel:
// with A and B all-ones, every element of C is exactly k (integer sums
// below 2^24 are exact in float). All 64 {1,3,7,17}^3 shapes.
TEST(GemmReferenceTest, OnesMatrixProductEqualsK) {
  const int64_t sizes[] = {1, 3, 7, 17};
  for (const int64_t m : sizes) {
    for (const int64_t k : sizes) {
      for (const int64_t n : sizes) {
        const std::vector<float> a(static_cast<size_t>(m * k), 1.0f);
        const std::vector<float> b(static_cast<size_t>(k * n), 1.0f);
        std::vector<float> c(static_cast<size_t>(m * n), -1.0f);
        GemmReference(a.data(), b.data(), c.data(), m, k, n);
        for (int64_t i = 0; i < m * n; ++i) {
          ASSERT_EQ(c[static_cast<size_t>(i)], static_cast<float>(k))
              << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

// Bitwise: the same float bits, not merely close (+0 and -0 differ).
bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Shapes for the bitwise tests: the CifarNet conv forward GEMMs (rows cut
// to keep the test fast; the per-element order does not depend on m),
// LSH projection shapes with 4- and 2-column scalar tails, and shapes
// straddling every panel and k-block boundary.
const std::vector<std::tuple<int64_t, int64_t, int64_t>>& BitwiseShapes() {
  static const std::vector<std::tuple<int64_t, int64_t, int64_t>> shapes = {
      {2048, 800, 32}, {4096, 75, 32}, {1000, 25, 12}, {333, 10, 20},
      {1, 37, 24},     {97, 129, 257}, {5, 300, 3},    {200, 1, 17},
      {193, 256, 513}, {7, 1, 1}};
  return shapes;
}

TEST(GemmBitwiseTest, MatchesRowSliceReferenceOnEveryBackend) {
  for (const simd::Kernels* backend : testutil::Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const auto& [m, k, n] : BitwiseShapes()) {
      const std::vector<float> a = testutil::RandomVector(m * k, 11 + m);
      const std::vector<float> b = testutil::RandomVector(k * n, 12 + n);
      const std::vector<float> c0 = testutil::RandomVector(m * n, 13 + k);
      for (const bool accumulate : {false, true}) {
        std::vector<float> expected = c0;
        testutil::RowSliceGemm(*backend, a.data(), b.data(), expected.data(),
                               m, k, n, accumulate);
        std::vector<float> actual = c0;
        Gemm(a.data(), b.data(), actual.data(), m, k, n, accumulate);
        EXPECT_TRUE(BitwiseEqual(actual, expected))
            << backend->name << " m=" << m << " k=" << k << " n=" << n
            << " accumulate=" << accumulate;
      }
    }
  }
}

// The order contract written out in plain scalar code: each 128-deep k
// block summed from zero in ascending k (multiply, then add), the blocks
// added to C in order. The scalar backend must reproduce it exactly.
TEST(GemmBitwiseTest, ScalarBackendKeepsBlockedSumOrder) {
  simd::ScopedKernelsOverride override_backend(simd::Scalar());
  for (const auto& [m, k, n] : BitwiseShapes()) {
    const std::vector<float> a = testutil::RandomVector(m * k, 21 + m);
    const std::vector<float> b = testutil::RandomVector(k * n, 22 + n);
    std::vector<float> expected(static_cast<size_t>(m * n));
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float c = 0.0f;
        for (int64_t k0 = 0; k0 < k; k0 += 128) {
          float acc = 0.0f;
          for (int64_t kk = k0; kk < std::min<int64_t>(k, k0 + 128); ++kk) {
            acc = a[static_cast<size_t>(i * k + kk)] *
                      b[static_cast<size_t>(kk * n + j)] +
                  acc;
          }
          c = c + acc;
        }
        expected[static_cast<size_t>(i * n + j)] = c;
      }
    }
    std::vector<float> actual(static_cast<size_t>(m * n));
    Gemm(a.data(), b.data(), actual.data(), m, k, n);
    EXPECT_TRUE(BitwiseEqual(actual, expected))
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmTransBTest, IsBitwiseGemmOfTransposedB) {
  for (const simd::Kernels* backend : testutil::Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const auto& [m, k, n] : BitwiseShapes()) {
      const std::vector<float> a = testutil::RandomVector(m * k, 31 + m);
      const std::vector<float> bt = testutil::RandomVector(n * k, 32 + n);
      std::vector<float> b(static_cast<size_t>(k * n));
      Transpose(bt.data(), n, k, b.data());
      std::vector<float> expected(static_cast<size_t>(m * n));
      Gemm(a.data(), b.data(), expected.data(), m, k, n);
      std::vector<float> actual(static_cast<size_t>(m * n));
      GemmTransB(a.data(), bt.data(), actual.data(), m, k, n);
      EXPECT_TRUE(BitwiseEqual(actual, expected))
          << backend->name << " m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(TransposeTest, SwapsRowsAndColumns) {
  const int64_t rows = 130, cols = 7;
  const std::vector<float> src = testutil::RandomVector(rows * cols, 41);
  std::vector<float> dst(static_cast<size_t>(rows * cols));
  Transpose(src.data(), rows, cols, dst.data());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      ASSERT_EQ(dst[static_cast<size_t>(c * rows + r)],
                src[static_cast<size_t>(r * cols + c)]);
    }
  }
}

}  // namespace
}  // namespace adr
