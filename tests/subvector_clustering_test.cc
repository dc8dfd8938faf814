// Tests for ReuseConfig, BlockLshFamilies, the reference clusterer
// ClusterSubVectors (tests/clustered_forward_reference.h), whose bits the
// production StreamingSubVectorClusterer must match (fused_forward_test),
// and the member lists the production clusterer records at Finish.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/reuse_config.h"
#include "core/subvector_clustering.h"
#include "tensor/tensor.h"
#include "tests/clustered_forward_reference.h"
#include "util/rng.h"

namespace adr {
namespace {

TEST(ReuseConfigTest, EffectiveLength) {
  ReuseConfig config;
  config.sub_vector_length = 0;
  EXPECT_EQ(config.EffectiveLength(100), 100);
  config.sub_vector_length = 25;
  EXPECT_EQ(config.EffectiveLength(100), 25);
  config.sub_vector_length = 200;
  EXPECT_EQ(config.EffectiveLength(100), 100);
}

TEST(ReuseConfigTest, Validation) {
  ReuseConfig config;
  EXPECT_TRUE(config.Validate(100).ok());
  config.sub_vector_length = -1;
  EXPECT_FALSE(config.Validate(100).ok());
  config.sub_vector_length = 101;
  EXPECT_FALSE(config.Validate(100).ok());
  config.sub_vector_length = 10;
  config.num_hashes = 0;
  EXPECT_FALSE(config.Validate(100).ok());
  config.num_hashes = kMaxLshHashes + 1;
  EXPECT_FALSE(config.Validate(100).ok());
  config.num_hashes = 8;
  EXPECT_TRUE(config.Validate(100).ok());
  EXPECT_FALSE(config.Validate(0).ok());
}

TEST(ReuseConfigTest, ClusterReuseImpliedByScope) {
  ReuseConfig config;
  EXPECT_FALSE(config.ClusterReuseEnabled());
  config.scope = ClusterScope::kAcrossBatch;
  EXPECT_TRUE(config.ClusterReuseEnabled());
  config.scope = ClusterScope::kSingleBatch;
  config.cluster_reuse = true;
  EXPECT_TRUE(config.ClusterReuseEnabled());
}

TEST(ReuseConfigTest, ToStringMentionsEverything) {
  ReuseConfig config;
  config.sub_vector_length = 8;
  config.num_hashes = 10;
  const std::string s = config.ToString();
  EXPECT_NE(s.find("L=8"), std::string::npos);
  EXPECT_NE(s.find("H=10"), std::string::npos);
  EXPECT_NE(s.find("CR=0"), std::string::npos);
  EXPECT_NE(s.find("single-batch"), std::string::npos);
}

TEST(BlockLshFamiliesTest, EvenSplit) {
  auto families = BlockLshFamilies::Create(12, 4, 8, 1);
  ASSERT_TRUE(families.ok());
  EXPECT_EQ(families->num_blocks(), 3);
  for (int64_t b = 0; b < 3; ++b) {
    EXPECT_EQ(families->block_offset(b), b * 4);
    EXPECT_EQ(families->block_length(b), 4);
    EXPECT_EQ(families->family(b).dim(), 4);
  }
}

TEST(BlockLshFamiliesTest, RaggedTailBlock) {
  auto families = BlockLshFamilies::Create(10, 4, 8, 1);
  ASSERT_TRUE(families.ok());
  EXPECT_EQ(families->num_blocks(), 3);
  EXPECT_EQ(families->block_length(2), 2);
}

TEST(BlockLshFamiliesTest, WholeRowWhenLZero) {
  auto families = BlockLshFamilies::Create(10, 0, 8, 1);
  ASSERT_TRUE(families.ok());
  EXPECT_EQ(families->num_blocks(), 1);
  EXPECT_EQ(families->block_length(0), 10);
}

TEST(BlockLshFamiliesTest, BlocksUseDistinctHyperplanes) {
  auto families = BlockLshFamilies::Create(8, 4, 16, 1);
  ASSERT_TRUE(families.ok());
  // Hash the same 4-vector through both blocks; with independent
  // hyperplanes, the signatures should differ with high probability.
  Rng rng(1);
  Tensor v = Tensor::RandomGaussian(Shape({4}), &rng);
  EXPECT_FALSE(families->family(0).Hash(v.data()) ==
               families->family(1).Hash(v.data()));
}

TEST(ClusterSubVectorsTest, DuplicateRowsShareClusters) {
  auto families = BlockLshFamilies::Create(6, 3, 12, 2);
  ASSERT_TRUE(families.ok());
  Rng rng(2);
  Tensor base = Tensor::RandomGaussian(Shape({1, 6}), &rng);
  Tensor x(Shape({4, 6}));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 6; ++j) x.at(i, j) = base.at(0, j);
  }
  const ReuseClustering result =
      ClusterSubVectors(*families, x.data(), 4, 4);
  ASSERT_EQ(result.blocks.size(), 2u);
  for (const auto& block : result.blocks) {
    EXPECT_EQ(block.clustering.num_clusters(), 1);
    EXPECT_EQ(block.clustering.cluster_sizes[0], 4);
    // Centroid of identical rows equals the row.
    for (int64_t j = 0; j < block.length; ++j) {
      EXPECT_NEAR(block.centroids.at(0, j),
                  base.at(0, block.col_offset + j), 1e-5f);
    }
  }
  EXPECT_DOUBLE_EQ(result.AverageRemainingRatio(), 0.25);
  EXPECT_EQ(result.TotalClusters(), 2);
}

TEST(ClusterSubVectorsTest, RandomRowsMostlySeparate) {
  auto families = BlockLshFamilies::Create(16, 16, 32, 3);
  ASSERT_TRUE(families.ok());
  Rng rng(3);
  Tensor x = Tensor::RandomGaussian(Shape({64, 16}), &rng);
  const ReuseClustering result =
      ClusterSubVectors(*families, x.data(), 64, 64);
  // 32 hyperplanes over random gaussian rows: collisions are rare.
  EXPECT_GT(result.blocks[0].clustering.num_clusters(), 55);
}

TEST(ClusterSubVectorsTest, FewerHashesCoarserClustering) {
  Rng rng(4);
  Tensor x = Tensor::RandomGaussian(Shape({128, 8}), &rng);
  auto fine = BlockLshFamilies::Create(8, 8, 24, 5);
  auto coarse = BlockLshFamilies::Create(8, 8, 2, 5);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(coarse.ok());
  const auto fine_result = ClusterSubVectors(*fine, x.data(), 128, 128);
  const auto coarse_result = ClusterSubVectors(*coarse, x.data(), 128, 128);
  EXPECT_LT(coarse_result.TotalClusters(), fine_result.TotalClusters());
  // With H=2 there can be at most 4 signatures.
  EXPECT_LE(coarse_result.blocks[0].clustering.num_clusters(), 4);
}

TEST(ClusterSubVectorsTest, GroupsNeverShareClusters) {
  // Single-input scope: identical rows in different groups must land in
  // different clusters.
  auto families = BlockLshFamilies::Create(4, 4, 8, 6);
  ASSERT_TRUE(families.ok());
  Rng rng(5);
  Tensor row = Tensor::RandomGaussian(Shape({4}), &rng);
  Tensor x(Shape({4, 4}));
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) x.at(i, j) = row.at(j);
  }
  const ReuseClustering grouped =
      ClusterSubVectors(*families, x.data(), 4, /*rows_per_group=*/2);
  const auto& c = grouped.blocks[0].clustering;
  EXPECT_EQ(c.num_clusters(), 2);
  EXPECT_EQ(c.assignment[0], c.assignment[1]);
  EXPECT_EQ(c.assignment[2], c.assignment[3]);
  EXPECT_NE(c.assignment[0], c.assignment[2]);
}

TEST(ClusterSubVectorsTest, SignaturesAlignWithClusters) {
  auto families = BlockLshFamilies::Create(8, 8, 16, 7);
  ASSERT_TRUE(families.ok());
  Rng rng(6);
  Tensor x = Tensor::RandomGaussian(Shape({32, 8}), &rng);
  const ReuseClustering result =
      ClusterSubVectors(*families, x.data(), 32, 32);
  const auto& block = result.blocks[0];
  ASSERT_EQ(static_cast<int64_t>(block.signatures.size()),
            block.clustering.num_clusters());
  // Re-hashing any row must reproduce its cluster's stored signature.
  for (int64_t i = 0; i < 32; ++i) {
    const LshSignature sig = families->family(0).Hash(x.data() + i * 8);
    const int32_t cluster = block.clustering.assignment[static_cast<size_t>(i)];
    EXPECT_EQ(sig, block.signatures[static_cast<size_t>(cluster)]);
  }
}

TEST(ClusterSubVectorsTest, RemainingRatioBounds) {
  auto families = BlockLshFamilies::Create(8, 4, 10, 8);
  ASSERT_TRUE(families.ok());
  Rng rng(7);
  Tensor x = Tensor::RandomGaussian(Shape({100, 8}), &rng);
  const ReuseClustering result =
      ClusterSubVectors(*families, x.data(), 100, 100);
  const double rc = result.AverageRemainingRatio();
  EXPECT_GT(rc, 0.0);
  EXPECT_LE(rc, 1.0);
}

// Every block's member lists list each cluster's rows in ascending order,
// in runs of cluster_sizes, and together cover [0, N) exactly once.
void ExpectMemberListsPartitionRows(const ReuseClustering& clustering) {
  const int64_t n = clustering.num_rows;
  for (size_t b = 0; b < clustering.blocks.size(); ++b) {
    SCOPED_TRACE("block " + std::to_string(b));
    const Clustering& c = clustering.blocks[b].clustering;
    const int64_t num_clusters = c.num_clusters();
    ASSERT_EQ(static_cast<int64_t>(c.member_start.size()), num_clusters + 1);
    ASSERT_EQ(static_cast<int64_t>(c.members.size()), n);
    EXPECT_EQ(c.member_start[0], 0);
    std::vector<int> seen(static_cast<size_t>(n), 0);
    for (int64_t cl = 0; cl < num_clusters; ++cl) {
      const int64_t begin = c.member_start[static_cast<size_t>(cl)];
      const int64_t end = c.member_start[static_cast<size_t>(cl + 1)];
      ASSERT_EQ(end - begin, c.cluster_sizes[static_cast<size_t>(cl)])
          << "cluster " << cl;
      for (int64_t j = begin; j < end; ++j) {
        const int32_t row = c.members[static_cast<size_t>(j)];
        ASSERT_GE(row, 0);
        ASSERT_LT(row, n);
        EXPECT_EQ(c.assignment[static_cast<size_t>(row)], cl) << "row " << row;
        if (j > begin) {
          EXPECT_LT(c.members[static_cast<size_t>(j - 1)], row)
              << "cluster " << cl << " not ascending";
        }
        ++seen[static_cast<size_t>(row)];
      }
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), n)
        << "member lists are not a partition of the rows";
  }
}

TEST(StreamingClustererTest, MemberListsPartitionRowsInAscendingRuns) {
  // Coarse hashes (H = 3) so clusters have many members; a ragged tail
  // block; tiles that straddle the scope groups; and a second, smaller
  // cycle on recycled buffers.
  auto families = BlockLshFamilies::Create(10, 4, 3, 9);
  ASSERT_TRUE(families.ok());
  Rng rng(9);
  StreamingSubVectorClusterer clusterer;
  struct Cycle {
    int64_t n;
    int64_t rows_per_group;
    int64_t tile_rows;
  };
  for (const Cycle cycle : {Cycle{120, 40, 17}, Cycle{60, 60, 64},
                            Cycle{1, 1, 1}}) {
    SCOPED_TRACE("n=" + std::to_string(cycle.n));
    const Tensor x = Tensor::RandomGaussian(Shape({cycle.n, 10}), &rng);
    clusterer.Begin(&*families, cycle.n, cycle.rows_per_group);
    for (int64_t row = 0; row < cycle.n; row += cycle.tile_rows) {
      clusterer.ConsumeTile(x.data() + row * 10, row,
                            std::min(cycle.tile_rows, cycle.n - row));
    }
    ReuseClustering clustering = clusterer.Finish();
    ExpectMemberListsPartitionRows(clustering);
    // The reference clusterer records the same lists.
    const ReuseClustering reference =
        ClusterSubVectors(*families, x.data(), cycle.n, cycle.rows_per_group);
    for (size_t b = 0; b < clustering.blocks.size(); ++b) {
      EXPECT_EQ(clustering.blocks[b].clustering.members,
                reference.blocks[b].clustering.members);
    }
    clusterer.Recycle(std::move(clustering));
  }
}

// Rows that copy one of `prototypes` random rows, plus noise far below
// the hyperplane margins of most rows: about `prototypes` clusters per
// block and group, with centroid sums over distinct rows.
Tensor PrototypeRows(int64_t n, int64_t k, int64_t prototypes, Rng* rng) {
  const Tensor protos = Tensor::RandomGaussian(Shape({prototypes, k}), rng);
  Tensor x(Shape({n, k}));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t p = static_cast<int64_t>(
        rng->NextBounded(static_cast<uint64_t>(prototypes)));
    for (int64_t j = 0; j < k; ++j) {
      x.at(i, j) = protos.at(p, j) + 1e-4f * rng->NextGaussian();
    }
  }
  return x;
}

TEST(StreamingClustererTest, TableGrowthMatchesReferenceAcrossCycles) {
  // The signature tables start small and double as a group's cluster
  // count grows. Tiles of 37 rows against groups of 50 or 100 rows put
  // growth steps mid-tile and group resets mid-tile. The cycles reuse one
  // clusterer, so tables grown by a many-cluster cycle serve later cycles
  // with fewer clusters, and then grow again.
  auto families = BlockLshFamilies::Create(12, 5, 24, 13);
  ASSERT_TRUE(families.ok());
  Rng rng(13);
  StreamingSubVectorClusterer clusterer;
  struct Cycle {
    int64_t n;
    int64_t rows_per_group;
    int64_t prototypes;
    int64_t grows_past;
  };
  for (const Cycle cycle :
       {Cycle{200, 100, 60, 32}, Cycle{200, 50, 3, 0},
        Cycle{600, 600, 500, 256}, Cycle{150, 50, 10, 0},
        Cycle{1200, 1200, 1200, 512}}) {
    SCOPED_TRACE("n=" + std::to_string(cycle.n) +
                 " prototypes=" + std::to_string(cycle.prototypes));
    const Tensor x = PrototypeRows(cycle.n, 12, cycle.prototypes, &rng);
    constexpr int64_t kTileRows = 37;
    clusterer.Begin(&*families, cycle.n, cycle.rows_per_group);
    for (int64_t row = 0; row < cycle.n; row += kTileRows) {
      clusterer.ConsumeTile(x.data() + row * 12, row,
                            std::min(kTileRows, cycle.n - row));
    }
    ReuseClustering clustering = clusterer.Finish();
    const ReuseClustering reference =
        ClusterSubVectors(*families, x.data(), cycle.n, cycle.rows_per_group);
    ASSERT_EQ(clustering.blocks.size(), reference.blocks.size());
    int64_t most_clusters = 0;
    for (size_t b = 0; b < clustering.blocks.size(); ++b) {
      SCOPED_TRACE("block " + std::to_string(b));
      const SubMatrixClustering& ab = clustering.blocks[b];
      const SubMatrixClustering& rb = reference.blocks[b];
      most_clusters = std::max(most_clusters, ab.clustering.num_clusters());
      EXPECT_EQ(ab.clustering.assignment, rb.clustering.assignment);
      EXPECT_EQ(ab.clustering.cluster_sizes, rb.clustering.cluster_sizes);
      EXPECT_EQ(ab.clustering.members, rb.clustering.members);
      ASSERT_EQ(ab.signatures.size(), rb.signatures.size());
      for (size_t c = 0; c < ab.signatures.size(); ++c) {
        EXPECT_TRUE(ab.signatures[c] == rb.signatures[c]) << "cluster " << c;
      }
      ASSERT_EQ(ab.centroids.shape(), rb.centroids.shape());
      EXPECT_EQ(std::memcmp(ab.centroids.data(), rb.centroids.data(),
                            sizeof(float) * static_cast<size_t>(
                                                ab.centroids.num_elements())),
                0);
    }
    // Some block averaged more clusters per group than `grows_past`, so
    // its table (64 slots at first, doubled at load 1/2) had to grow.
    EXPECT_GT(most_clusters / (cycle.n / cycle.rows_per_group),
              cycle.grows_past);
    clusterer.Recycle(std::move(clustering));
  }
}

}  // namespace
}  // namespace adr
