// Differential tests for the LSH forward driver, ClusteredForward. Given
// an NCHW input under its conv geometry, or the materialized Im2Col matrix
// under MatrixGeometry, it must be bit-identical to ReferenceForward
// (tests/clustered_forward_reference.h): same signatures, clusterings,
// hit decisions and outputs. Checked at every compiled SIMD backend and
// thread count, with and without the cluster-reuse cache, across
// tile/group boundary misalignment, on degenerate shapes (N = 1, L = K,
// L > K, |C| = N, H at the sign-word boundary), with recycled buffers,
// and through ReuseConv2d.

#include <gtest/gtest.h>

#include <vector>

#include "core/clustered_matmul.h"
#include "core/reuse_conv2d.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "tensor/workspace_arena.h"
#include "tests/clustered_forward_reference.h"
#include "tests/kernel_harness.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

using testutil::Backends;

constexpr int kThreadCounts[] = {1, 2, 8};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ThreadPool::GlobalThreads()) {}
  ~ThreadCountGuard() { ThreadPool::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

// Geometry chosen so the driver runs several L2 tiles whose
// boundaries do NOT align with the per-image group boundaries:
// K = 32*5*5 = 800 gives L2TileRows = 64, while each 7x7 image
// contributes 49 rows.
ConvGeometry MultiTileGeometry(int64_t batch) {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = 32;
  geo.in_height = 7;
  geo.in_width = 7;
  geo.kernel_h = 5;
  geo.kernel_w = 5;
  geo.stride = 1;
  geo.pad = 2;
  return geo;
}

// Small single-tile geometry (K = 27, all rows fit in one tile).
ConvGeometry SingleTileGeometry(int64_t batch) {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = 3;
  geo.in_height = 8;
  geo.in_width = 8;
  geo.kernel_h = 3;
  geo.kernel_w = 3;
  geo.stride = 1;
  geo.pad = 1;
  return geo;
}

void ExpectSameClustering(const ReuseClustering& actual,
                          const ReuseClustering& reference) {
  ASSERT_EQ(actual.num_rows, reference.num_rows);
  ASSERT_EQ(actual.num_cols, reference.num_cols);
  ASSERT_EQ(actual.blocks.size(), reference.blocks.size());
  for (size_t b = 0; b < actual.blocks.size(); ++b) {
    const SubMatrixClustering& ab = actual.blocks[b];
    const SubMatrixClustering& rb = reference.blocks[b];
    EXPECT_EQ(ab.col_offset, rb.col_offset) << "block " << b;
    EXPECT_EQ(ab.length, rb.length) << "block " << b;
    EXPECT_EQ(ab.clustering.assignment, rb.clustering.assignment)
        << "block " << b;
    EXPECT_EQ(ab.clustering.cluster_sizes, rb.clustering.cluster_sizes)
        << "block " << b;
    EXPECT_EQ(ab.clustering.member_start, rb.clustering.member_start)
        << "block " << b;
    EXPECT_EQ(ab.clustering.members, rb.clustering.members) << "block " << b;
    EXPECT_EQ(ab.reused_from_cache, rb.reused_from_cache) << "block " << b;
    ASSERT_EQ(ab.signatures.size(), rb.signatures.size()) << "block " << b;
    for (size_t c = 0; c < ab.signatures.size(); ++c) {
      EXPECT_TRUE(ab.signatures[c] == rb.signatures[c])
          << "block " << b << " cluster " << c;
    }
    ASSERT_EQ(ab.centroids.shape(), rb.centroids.shape()) << "block " << b;
    const float* ac = ab.centroids.data();
    const float* rc = rb.centroids.data();
    for (int64_t i = 0; i < ab.centroids.num_elements(); ++i) {
      ASSERT_EQ(ac[i], rc[i]) << "block " << b << " centroid element " << i;
    }
  }
}

// The three caches of one differential run, in identical states: one per
// input form given to the production driver, and the reference's.
struct Caches {
  ClusterReuseCache unfold;
  ClusterReuseCache matrix;
  ReferenceClusterCache reference;
};

void ExpectSameStats(const ReuseLayerStats& stats,
                     const ReferenceForwardResult& reference) {
  EXPECT_EQ(stats.clusters_total, reference.clusters_total);
  EXPECT_EQ(stats.clusters_reused, reference.clusters_reused);
  EXPECT_DOUBLE_EQ(stats.last_batch_reuse_rate,
                   static_cast<double>(reference.clusters_reused) /
                       static_cast<double>(reference.clusters_total));
}

// Runs the production driver on both input forms and ReferenceForward
// on one input, and checks bitwise equality of signatures, clusterings,
// hit decisions and outputs.
void ExpectDriverMatchesReference(const BlockLshFamilies& families,
                                  const ConvGeometry& geo,
                                  const Tensor& input, const Tensor& weight,
                                  const Tensor& bias, int64_t rows_per_group,
                                  Caches* caches) {
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = weight.shape()[1];

  Tensor cols(Shape({n, k}));
  Im2Col(geo, input, &cols);
  const ReferenceForwardResult reference = ReferenceForward(
      families, cols.data(), n, weight, &bias, rows_per_group,
      caches == nullptr ? nullptr : &caches->reference);

  const struct {
    const char* name;
    ConvGeometry geo;
    const float* data;
    ClusterReuseCache* cache;
  } sources[] = {
      {"unfold", geo, input.data(),
       caches == nullptr ? nullptr : &caches->unfold},
      {"matrix", MatrixGeometry(n, k), cols.data(),
       caches == nullptr ? nullptr : &caches->matrix},
  };
  for (const auto& source : sources) {
    SCOPED_TRACE(source.name);
    WorkspaceArena arena;
    StreamingSubVectorClusterer clusterer;
    std::vector<float> y(static_cast<size_t>(n * m));
    ReuseClustering clustering;
    ReuseLayerStats fs;
    ClusteredForward(families, source.geo, source.data, weight, &bias,
                     rows_per_group, source.cache, &arena, &clusterer,
                     y.data(), &clustering, &fs);
    const float* ry = reference.y.data();
    for (int64_t i = 0; i < n * m; ++i) {
      ASSERT_EQ(y[static_cast<size_t>(i)], ry[i]) << "output element " << i;
    }
    ExpectSameClustering(clustering, reference.clustering);
    ExpectSameStats(fs, reference);
  }
}

TEST(FusedForwardTest, MatchesMaterializedAcrossBackendsAndThreads) {
  ThreadCountGuard guard;
  const ConvGeometry geo = MultiTileGeometry(4);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  ASSERT_GT(n, L2TileRows(k)) << "geometry must span several tiles";

  Rng rng(11);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 16}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({16}), &rng);
  auto families = BlockLshFamilies::Create(k, 100, 10, 5);
  ASSERT_TRUE(families.ok());

  for (const simd::Kernels* backend : Backends()) {
    simd::ScopedKernelsOverride override_backend(*backend);
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE(std::string(backend->name) + " threads=" +
                   std::to_string(threads));
      ThreadPool::SetGlobalThreads(threads);
      ExpectDriverMatchesReference(*families, geo, input, weight, bias,
                                     /*rows_per_group=*/n, nullptr);
    }
  }
}

TEST(FusedForwardTest, MatchesReferenceOnDegenerateShapes) {
  ThreadCountGuard guard;
  struct Case {
    const char* name;
    ConvGeometry geo;
    int64_t l;
    int h;
    bool every_row_a_cluster = false;
  };
  // One image whose 3x3 input meets a 3x3 kernel without padding: N = 1.
  ConvGeometry single_row = SingleTileGeometry(1);
  single_row.in_height = 3;
  single_row.in_width = 3;
  single_row.pad = 0;
  ASSERT_EQ(single_row.unfolded_rows(), 1);
  const ConvGeometry small = SingleTileGeometry(2);  // K = 27
  // 8 images of 10x10 under an unpadded 3x3 kernel: N = 512 Gaussian
  // rows, every sub-vector its own cluster at H = 64, so each block's
  // signature table doubles from its first size up past 2N slots.
  ConvGeometry distinct = SingleTileGeometry(8);
  distinct.in_height = 10;
  distinct.in_width = 10;
  distinct.pad = 0;
  const Case cases[] = {
      {"N=1", single_row, 9, 8},
      // L = K: one block, K mod 8 = 3, so every hyperplane row is padded.
      {"L=K=27", small, 27, 12},
      // L > K: clamped to one block of width K.
      {"L=40>K", small, 40, 12},
      {"|C|=N", distinct, 9, 64, /*every_row_a_cluster=*/true},
      // H = 64 fills the first sign word exactly; 65 spills one bit into
      // the second; 128 fills both.
      {"H=64", small, 9, 64},
      {"H=65", small, 9, 65},
      {"H=128", small, 9, 128},
  };
  for (const Case& c : cases) {
    const int64_t n = c.geo.unfolded_rows();
    const int64_t k = c.geo.unfolded_cols();
    ASSERT_EQ(k, 27) << c.name;
    Rng rng(16);
    const Tensor input = Tensor::RandomGaussian(
        Shape({c.geo.batch, c.geo.in_channels, c.geo.in_height,
               c.geo.in_width}),
        &rng);
    const Tensor weight = Tensor::RandomGaussian(Shape({k, 5}), &rng);
    const Tensor bias = Tensor::RandomGaussian(Shape({5}), &rng);
    auto families = BlockLshFamilies::Create(k, c.l, c.h, 10);
    ASSERT_TRUE(families.ok()) << c.name;
    if (c.l > k) {
      ASSERT_EQ(families->num_blocks(), 1) << c.name;
    }
    if (c.every_row_a_cluster) {
      Tensor cols(Shape({n, k}));
      Im2Col(c.geo, input, &cols);
      for (const SubMatrixClustering& block :
           ClusterSubVectors(*families, cols.data(), n, n).blocks) {
        ASSERT_EQ(block.clustering.num_clusters(), n) << c.name;
      }
    }
    for (const simd::Kernels* backend : Backends()) {
      simd::ScopedKernelsOverride override_backend(*backend);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(c.name) + " " + backend->name +
                     " threads=" + std::to_string(threads));
        ThreadPool::SetGlobalThreads(threads);
        ExpectDriverMatchesReference(*families, c.geo, input, weight, bias,
                                     /*rows_per_group=*/n, nullptr);
      }
    }
  }
}

TEST(FusedForwardTest, MatchesMaterializedWithMisalignedGroupBoundaries) {
  // Per-image scope: 49-row groups vs 64-row tiles, so the signature
  // table resets of the streaming clusterer land mid-tile.
  const ConvGeometry geo = MultiTileGeometry(4);
  const int64_t k = geo.unfolded_cols();
  ASSERT_NE(geo.rows_per_image() % L2TileRows(k), 0);

  Rng rng(12);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 8}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({8}), &rng);
  auto families = BlockLshFamilies::Create(k, 160, 8, 6);
  ASSERT_TRUE(families.ok());

  ExpectDriverMatchesReference(*families, geo, input, weight, bias,
                                 geo.rows_per_image(), nullptr);
}

TEST(FusedForwardTest, MatchesMaterializedSingleTile) {
  const ConvGeometry geo = SingleTileGeometry(2);
  const int64_t k = geo.unfolded_cols();
  Rng rng(13);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 6}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({6}), &rng);
  auto families = BlockLshFamilies::Create(k, 9, 12, 7);
  ASSERT_TRUE(families.ok());

  ExpectDriverMatchesReference(*families, geo, input, weight, bias,
                                 geo.unfolded_rows(), nullptr);
}

TEST(FusedForwardTest, MatchesMaterializedWithClusterReuseCache) {
  // Two consecutive batches against separate-but-identical caches: the
  // second batch exercises the hit/memcpy path and the reuse stats.
  const ConvGeometry geo = MultiTileGeometry(3);
  const int64_t k = geo.unfolded_cols();
  Rng rng(14);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, 8}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({8}), &rng);
  auto families = BlockLshFamilies::Create(k, 200, 6, 8);
  ASSERT_TRUE(families.ok());

  Caches caches;
  const Tensor batch1 = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  // Second batch = first batch plus small noise, so many signatures repeat.
  Tensor batch2 = batch1;
  for (int64_t i = 0; i < batch2.num_elements(); ++i) {
    batch2.data()[i] += rng.NextGaussian() * 1e-4f;
  }

  ExpectDriverMatchesReference(*families, geo, batch1, weight, bias,
                               geo.unfolded_rows(), &caches);
  ExpectDriverMatchesReference(*families, geo, batch2, weight, bias,
                               geo.unfolded_rows(), &caches);
  EXPECT_GT(caches.unfold.hits(), 0);
  for (const ClusterReuseCache* cache : {&caches.unfold, &caches.matrix}) {
    EXPECT_EQ(cache->hits(), caches.reference.hits());
    EXPECT_EQ(cache->lookups(), caches.reference.lookups());
  }
}

TEST(FusedForwardTest, ReusedBuffersStayBitIdenticalAcrossSteps) {
  // One persistent clusterer and arena driven for several steps (with
  // Recycle between them, as the layer does), alternating the input
  // forms, must keep producing the reference's bits.
  const ConvGeometry geo = MultiTileGeometry(2);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = 8;
  Rng rng(15);
  const Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}),
      &rng);
  const Tensor weight = Tensor::RandomGaussian(Shape({k, m}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({m}), &rng);
  auto families = BlockLshFamilies::Create(k, 100, 10, 9);
  ASSERT_TRUE(families.ok());
  Tensor cols(Shape({n, k}));
  Im2Col(geo, input, &cols);
  const ReferenceForwardResult reference =
      ReferenceForward(*families, cols.data(), n, weight, &bias, n, nullptr);

  WorkspaceArena arena;
  StreamingSubVectorClusterer clusterer;
  for (int step = 0; step < 4; ++step) {
    arena.Reset();
    float* y = arena.AllocFloats(n * m);
    ReuseClustering clustering;
    ReuseLayerStats fs;
    const bool unfold = step % 2 == 0;
    ClusteredForward(*families, unfold ? geo : MatrixGeometry(n, k),
                     unfold ? input.data() : cols.data(), weight, &bias, n,
                     nullptr, &arena, &clusterer, y, &clustering, &fs);
    for (int64_t i = 0; i < n * m; ++i) {
      ASSERT_EQ(y[i], reference.y.data()[i])
          << "step " << step << " element " << i;
    }
    clusterer.Recycle(std::move(clustering));
  }
}

TEST(FusedForwardTest, ReuseConv2dFusedMatchesMaterializedLayer) {
  // Layer-level differential: with exact_backward set, the training
  // Forward also materializes im2col for the exact backward, while the
  // driver unfolds its tiles again; the default layer only unfolds tile
  // by tile. Identically seeded weights must give bitwise-equal outputs.
  Conv2dConfig config;
  config.in_channels = 32;
  config.out_channels = 12;
  config.kernel = 5;
  config.stride = 1;
  config.pad = 2;
  config.in_height = 7;
  config.in_width = 7;
  ReuseConfig reuse;
  reuse.sub_vector_length = 100;
  reuse.num_hashes = 8;

  Rng rng_a(21);
  Rng rng_b(21);
  ReuseConv2d fused_layer("fused", config, reuse, &rng_a);
  ReuseConv2d materialized_layer("materialized", config, reuse, &rng_b);
  materialized_layer.set_exact_backward(true);

  Rng data_rng(22);
  const Tensor input = Tensor::RandomGaussian(Shape({4, 32, 7, 7}),
                                              &data_rng);
  const Tensor out_fused = fused_layer.Forward(input, /*training=*/true);
  const Tensor out_materialized =
      materialized_layer.Forward(input, /*training=*/true);
  ASSERT_EQ(out_fused.shape(), out_materialized.shape());
  for (int64_t i = 0; i < out_fused.num_elements(); ++i) {
    ASSERT_EQ(out_fused.data()[i], out_materialized.data()[i])
        << "element " << i;
  }
}

TEST(FusedForwardTest, ReuseConv2dEvalMatchesTrainingOutput) {
  // Eval mode unfolds tile by tile and caches nothing; without a
  // cluster-reuse cache the forward is pure, so eval and training
  // outputs are bitwise equal and repeated eval calls are stable.
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 6;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 8;
  config.in_width = 8;
  ReuseConfig reuse;
  reuse.sub_vector_length = 9;
  reuse.num_hashes = 10;

  Rng rng(23);
  ReuseConv2d layer("evaltrain", config, reuse, &rng);
  Rng data_rng(24);
  const Tensor input = Tensor::RandomGaussian(Shape({2, 3, 8, 8}),
                                              &data_rng);

  const Tensor train_out = layer.Forward(input, /*training=*/true);
  const Tensor eval_out = layer.Forward(input, /*training=*/false);
  const Tensor eval_again = layer.Forward(input, /*training=*/false);
  for (int64_t i = 0; i < train_out.num_elements(); ++i) {
    ASSERT_EQ(eval_out.data()[i], train_out.data()[i]) << "element " << i;
    ASSERT_EQ(eval_again.data()[i], train_out.data()[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace adr
