// Tests for ReuseBackwardInto (paper Section IV): bitwise agreement with the
// serial reference of tests/reuse_backward_reference.h, exactness in the
// singleton limit, the averaging semantics of Eq. 13, and MAC accounting.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/reuse_backward.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace_arena.h"
#include "tests/clustered_forward_reference.h"
#include "tests/kernel_harness.h"
#include "tests/matrix_reuse.h"
#include "tests/reuse_backward_reference.h"
#include "tests/serial_pass_reference.h"
#include "tests/thread_count_guard.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

using testutil::Backends;

using testutil::ThreadCountGuard;

ConvGeometry Geometry(int64_t batch, int64_t channels, int64_t size,
                      int64_t kernel, int64_t stride, int64_t pad) {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = channels;
  geo.in_height = size;
  geo.in_width = size;
  geo.kernel_h = kernel;
  geo.kernel_w = kernel;
  geo.stride = stride;
  geo.pad = pad;
  return geo;
}

void ExpectBitwiseEqual(const float* actual, const float* expected,
                        int64_t count, const char* what) {
  for (int64_t i = 0; i < count; ++i) {
    if (std::memcmp(actual + i, expected + i, sizeof(float)) != 0) {
      ADD_FAILURE() << what << " differs at element " << i << ": "
                    << actual[i] << " vs " << expected[i];
      return;
    }
  }
}

struct BitwiseCase {
  const char* name;
  ConvGeometry geo;
  int64_t l;  ///< sub-vector length before clamping to K
  int h;
  bool all_singletons;  ///< the case requires |C| = N in every block
};

// ReuseBackwardInto under the conv geometry (arena) and under
// MatrixGeometry (heap scratch, via MatrixBackward) both match
// ReferenceBackward bit for bit: dW, db, the folded input delta and the
// unfolded grad_x.
TEST(ReuseBackwardTest, MatchesReferenceBitwise) {
  ThreadCountGuard guard;
  const BitwiseCase cases[] = {
      // AlexNet conv1: 11 x 11 stride 4, K = 363 in 36 blocks of 10 and
      // one of 3; each image spans two fold tiles.
      {"alexnet_conv1", Geometry(2, 3, 67, 11, 4, 0), 10, 8, false},
      // Overlapping 5 x 5 pad-2 patches; 20 images in 8 fold groups, so
      // tiles span image boundaries.
      {"pad2_overlap", Geometry(20, 8, 12, 5, 1, 2), 25, 8, false},
      // K = 100 with L = 30: a short last block.
      {"k_mod_l", Geometry(3, 4, 9, 5, 1, 2), 30, 8, false},
      {"l_equals_k", Geometry(3, 4, 9, 5, 1, 2), 100, 10, false},
      {"l_above_k_clamped", Geometry(3, 4, 9, 5, 1, 2), 150, 10, false},
      {"n_1", Geometry(1, 2, 5, 5, 1, 0), 7, 8, false},
      {"all_singletons", Geometry(2, 3, 8, 3, 1, 0), 9, 64, true},
  };
  constexpr int64_t kM = 16;
  for (const BitwiseCase& tc : cases) {
    SCOPED_TRACE(tc.name);
    const ConvGeometry& geo = tc.geo;
    const int64_t n = geo.unfolded_rows();
    const int64_t k = geo.unfolded_cols();
    Rng rng(41);
    const Tensor input = Tensor::RandomGaussian(
        Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
        &rng);
    const Tensor weight = Tensor::RandomGaussian(Shape({k, kM}), &rng);
    const Tensor dy = Tensor::RandomGaussian(Shape({n, kM}), &rng);
    Tensor cols(Shape({n, k}));
    Im2Col(geo, input, &cols);
    auto families = BlockLshFamilies::Create(k, tc.l, tc.h, 3);
    ASSERT_TRUE(families.ok());

    for (const simd::Kernels* backend : Backends()) {
      simd::ScopedKernelsOverride override_backend(*backend);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(backend->name) + " threads=" +
                     std::to_string(threads));
        ThreadPool::SetGlobalThreads(threads);
        const ReuseClustering clustering =
            MatrixForward(*families, cols.data(), n, weight, nullptr, n,
                          nullptr)
                .clustering;
        bool coarse = false;
        for (const SubMatrixClustering& block : clustering.blocks) {
          if (tc.all_singletons) {
            ASSERT_EQ(block.clustering.num_clusters(), n);
          } else if (block.clustering.num_clusters() < n) {
            coarse = true;
          }
        }
        if (!tc.all_singletons && n > 1) {
          ASSERT_TRUE(coarse) << "no cluster has two members";
        }
        const ReferenceBackwardResult expected =
            ReferenceBackward(clustering, weight, dy.data(), geo);

        WorkspaceArena arena;
        Tensor grad_weight(Shape({k, kM}));
        Tensor grad_bias(Shape({kM}));
        Tensor grad_input(Shape(
            {geo.batch, geo.in_channels, geo.in_height, geo.in_width}));
        ReuseLayerStats stats;
        for (int step = 0; step < 2; ++step) {  // warm arena on step 1
          arena.Reset();
          ReuseBackwardInto(clustering, weight, dy.data(), geo, &arena,
                            grad_weight.data(), grad_bias.data(),
                            grad_input.data(), &stats);
        }
        ExpectBitwiseEqual(grad_weight.data(), expected.grad_weight.data(),
                           k * kM, "dW");
        ExpectBitwiseEqual(grad_bias.data(), expected.grad_bias.data(), kM,
                           "db");
        ExpectBitwiseEqual(grad_input.data(), expected.grad_input.data(),
                           grad_input.num_elements(), "dX");

        const MatrixBackwardResult unfolded =
            MatrixBackward(clustering, weight, dy);
        ExpectBitwiseEqual(unfolded.grad_weight.data(),
                           expected.grad_weight.data(), k * kM, "matrix dW");
        ExpectBitwiseEqual(unfolded.grad_bias.data(),
                           expected.grad_bias.data(), kM, "matrix db");
        ExpectBitwiseEqual(unfolded.grad_x.data(), expected.grad_cols.data(),
                           n * k, "matrix grad_x");
      }
    }
  }
}

struct DenseBackward {
  Tensor grad_weight;
  Tensor grad_x;
};

DenseBackward ExactBackward(const Tensor& x, const Tensor& w,
                            const Tensor& dy) {
  const int64_t n = x.shape()[0], k = x.shape()[1], m = w.shape()[1];
  DenseBackward result;
  result.grad_weight = Tensor(Shape({k, m}));
  GemmTransA(x.data(), dy.data(), result.grad_weight.data(), k, n, m);
  result.grad_x = Tensor(Shape({n, k}));
  GemmTransB(dy.data(), w.data(), result.grad_x.data(), n, m, k);
  return result;
}

TEST(ReuseBackwardTest, ExactInSingletonLimit) {
  // Enough hyperplanes that every random row is its own cluster; the
  // reuse backward must then equal the exact backward.
  auto families = BlockLshFamilies::Create(6, 0, 80, 1);
  ASSERT_TRUE(families.ok());
  Rng rng(1);
  Tensor x = Tensor::RandomGaussian(Shape({10, 6}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({6, 4}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({10, 4}), &rng);

  const ReuseClustering clustering =
      ClusterSubVectors(*families, x.data(), 10, 10);
  if (clustering.TotalClusters() != 10) {
    GTEST_SKIP() << "accidental LSH collision; singleton limit not reached";
  }
  const MatrixBackwardResult reuse = MatrixBackward(clustering, w, dy);
  const DenseBackward exact = ExactBackward(x, w, dy);
  EXPECT_TRUE(AllClose(reuse.grad_weight, exact.grad_weight, 1e-4f, 1e-5f));
  EXPECT_TRUE(AllClose(reuse.grad_x, exact.grad_x, 1e-4f, 1e-5f));
}

TEST(ReuseBackwardTest, BiasGradientAlwaysExact)
{
  auto families = BlockLshFamilies::Create(6, 3, 2, 2);  // coarse clustering
  ASSERT_TRUE(families.ok());
  Rng rng(2);
  Tensor x = Tensor::RandomGaussian(Shape({20, 6}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({6, 5}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({20, 5}), &rng);
  const ReuseClustering clustering =
      ClusterSubVectors(*families, x.data(), 20, 20);
  const MatrixBackwardResult reuse = MatrixBackward(clustering, w, dy);
  EXPECT_TRUE(AllClose(reuse.grad_bias, testutil::ReferenceColumnSums(dy)));
}

TEST(ReuseBackwardTest, WeightGradUsesClusterSums) {
  // Two identical rows in one cluster: dW must be x_c^T (dy_0 + dy_1),
  // which equals the exact gradient because x rows are identical.
  auto families = BlockLshFamilies::Create(4, 0, 16, 3);
  ASSERT_TRUE(families.ok());
  Rng rng(3);
  Tensor row = Tensor::RandomGaussian(Shape({4}), &rng);
  Tensor x(Shape({2, 4}));
  for (int64_t j = 0; j < 4; ++j) {
    x.at(0, j) = row.at(j);
    x.at(1, j) = row.at(j);
  }
  Tensor w = Tensor::RandomGaussian(Shape({4, 3}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({2, 3}), &rng);

  const ReuseClustering clustering =
      ClusterSubVectors(*families, x.data(), 2, 2);
  ASSERT_EQ(clustering.TotalClusters(), 1);
  const MatrixBackwardResult reuse = MatrixBackward(clustering, w, dy);
  const DenseBackward exact = ExactBackward(x, w, dy);
  EXPECT_TRUE(AllClose(reuse.grad_weight, exact.grad_weight, 1e-4f, 1e-5f));
}

TEST(ReuseBackwardTest, InputDeltaIsClusterAverageScattered) {
  // Eq. 13: every member of a cluster receives the *average* member
  // gradient, i.e. mean_i(dy_i) * W^T.
  auto families = BlockLshFamilies::Create(4, 0, 16, 4);
  ASSERT_TRUE(families.ok());
  Rng rng(4);
  Tensor row = Tensor::RandomGaussian(Shape({4}), &rng);
  Tensor x(Shape({3, 4}));
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) x.at(i, j) = row.at(j);
  }
  Tensor w = Tensor::RandomGaussian(Shape({4, 2}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({3, 2}), &rng);

  const ReuseClustering clustering =
      ClusterSubVectors(*families, x.data(), 3, 3);
  ASSERT_EQ(clustering.TotalClusters(), 1);
  const MatrixBackwardResult reuse = MatrixBackward(clustering, w, dy);

  // Expected: dy_avg * W^T for every row.
  Tensor dy_avg(Shape({1, 2}));
  for (int64_t j = 0; j < 2; ++j) {
    dy_avg.at(0, j) = (dy.at(0, j) + dy.at(1, j) + dy.at(2, j)) / 3.0f;
  }
  Tensor expected_row(Shape({1, 4}));
  GemmTransB(dy_avg.data(), w.data(), expected_row.data(), 1, 2, 4);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(reuse.grad_x.at(i, j), expected_row.at(0, j), 1e-5f);
    }
  }
}

TEST(ReuseBackwardTest, SubVectorBlocksFillDisjointColumnRanges) {
  auto families = BlockLshFamilies::Create(8, 4, 60, 5);
  ASSERT_TRUE(families.ok());
  Rng rng(5);
  Tensor x = Tensor::RandomGaussian(Shape({6, 8}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({8, 3}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({6, 3}), &rng);
  const ReuseClustering clustering =
      ClusterSubVectors(*families, x.data(), 6, 6);
  // Singleton limit per block (60 hashes): exact again, and the two column
  // blocks of dW/dx must combine to the dense result.
  if (clustering.blocks[0].clustering.num_clusters() == 6 &&
      clustering.blocks[1].clustering.num_clusters() == 6) {
    const MatrixBackwardResult reuse = MatrixBackward(clustering, w, dy);
    const DenseBackward exact = ExactBackward(x, w, dy);
    EXPECT_TRUE(AllClose(reuse.grad_weight, exact.grad_weight, 1e-4f, 1e-5f));
    EXPECT_TRUE(AllClose(reuse.grad_x, exact.grad_x, 1e-4f, 1e-5f));
  }
}

TEST(ReuseBackwardTest, MacAccounting) {
  auto families = BlockLshFamilies::Create(8, 4, 8, 6);
  ASSERT_TRUE(families.ok());
  Rng rng(6);
  Tensor x = Tensor::RandomGaussian(Shape({16, 8}), &rng);
  Tensor w = Tensor::RandomGaussian(Shape({8, 5}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({16, 5}), &rng);
  const ReuseClustering clustering =
      ClusterSubVectors(*families, x.data(), 16, 16);
  const MatrixBackwardResult reuse = MatrixBackward(clustering, w, dy);
  EXPECT_DOUBLE_EQ(reuse.stats.macs_baseline, 2.0 * 16 * 8 * 5);
  EXPECT_GT(reuse.stats.macs_executed, 0.0);
  EXPECT_LE(reuse.stats.macs_executed, reuse.stats.macs_baseline);
}

TEST(ReuseBackwardTest, CoarseClusteringStillDescends) {
  // Even with very coarse clustering (H=1) the approximate gradient should
  // be positively correlated with the exact gradient — the property that
  // lets early-stage training tolerate aggressive reuse.
  auto families = BlockLshFamilies::Create(8, 0, 1, 7);
  ASSERT_TRUE(families.ok());
  Rng rng(7);
  // Correlated rows so clusters are meaningful.
  Tensor proto = Tensor::RandomGaussian(Shape({8}), &rng);
  Tensor x(Shape({32, 8}));
  for (int64_t i = 0; i < 32; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      x.at(i, j) = proto.at(j) + 0.1f * rng.NextGaussian();
    }
  }
  Tensor w = Tensor::RandomGaussian(Shape({8, 4}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({32, 4}), &rng);
  const ReuseClustering clustering =
      ClusterSubVectors(*families, x.data(), 32, 32);
  const MatrixBackwardResult reuse = MatrixBackward(clustering, w, dy);
  const DenseBackward exact = ExactBackward(x, w, dy);
  double dot = 0.0;
  for (int64_t i = 0; i < exact.grad_weight.num_elements(); ++i) {
    dot += static_cast<double>(reuse.grad_weight.at(i)) *
           exact.grad_weight.at(i);
  }
  EXPECT_GT(dot, 0.0);
}

}  // namespace
}  // namespace adr
