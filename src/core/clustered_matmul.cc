#include "core/clustered_matmul.h"

#include <algorithm>
#include <cstring>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

namespace {

// y[i] += yc[assignment[i]] for every row: the member scatter that fans
// the per-cluster GEMM results back out. Each row owns y[i], so row
// chunks are race-free and thread-count independent.
void ScatterClusterOutputs(const float* yc, const Clustering& clustering,
                           int64_t num_rows, int64_t m, float* y) {
  const simd::Kernels& kernels = simd::Active();
  ParallelFor(num_rows, GrainForCost(m), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      kernels.add(yc + clustering.assignment[static_cast<size_t>(i)] * m,
                  y + i * m, m);
    }
  });
}

// The back half of the clustered forward: given a finished clustering,
// consult the cross-batch cache when there is one, run one GEMM over the
// missed centroids per block (gathered compactly when some clusters hit),
// scatter the cluster outputs to the member rows, and add the bias. `y`
// (num_rows x m) is overwritten; transient buffers bump from `scratch`.
// Fills every field of `stats` but the two timings.
void FinishForwardFromClustering(ReuseClustering* clustering,
                                 const Tensor& weight, const Tensor* bias,
                                 ClusterReuseCache* cache, int num_hashes,
                                 ScratchAllocator* scratch, float* y,
                                 ReuseLayerStats* stats) {
  const int64_t num_rows = clustering->num_rows;
  const int64_t k = clustering->num_cols;
  const int64_t m = weight.shape()[1];
  std::fill_n(y, static_cast<size_t>(num_rows * m), 0.0f);

  int64_t batch_clusters = 0;
  int64_t batch_reused = 0;
  double gemm_macs = 0.0;
  double scatter_macs = 0.0;  // adds from reconstructing y, counted as MACs

  ADR_TRACE_SPAN("centroid_gemm_scatter");
  for (size_t bi = 0; bi < clustering->blocks.size(); ++bi) {
    SubMatrixClustering& block = clustering->blocks[bi];
    const int64_t num_clusters = block.clustering.num_clusters();
    const int64_t length = block.length;
    const float* w_block = weight.data() + block.col_offset * m;
    batch_clusters += num_clusters;

    // 1. Decide, per cluster, whether its output comes from the cache:
    // one batched parallel lookup over the block's signatures, then one
    // parallel gather of the hit payloads (cached output rows into yc,
    // cached representatives over the fresh centroids — the backward pass
    // must see the representative the cached output was computed from).
    // Every yc row is written below (hit gather or GEMM), so the
    // uninitialized scratch buffer is safe.
    float* yc = scratch->Floats(num_clusters * m);
    int32_t* miss_clusters = scratch->Int32(num_clusters);
    int64_t num_miss = 0;
    if (cache != nullptr) {
      int32_t* hit_entries = scratch->Int32(num_clusters);
      int64_t num_hits = 0;
      {
        ADR_TRACE_SPAN("cache_find_batch");
        num_hits = cache->FindBatch(static_cast<int64_t>(bi),
                                    block.signatures.data(), num_clusters,
                                    hit_entries);
      }
      if (num_hits > 0) {
        cache->GatherHits(static_cast<int64_t>(bi), hit_entries,
                          num_clusters, yc, m, block.centroids.data(),
                          length);
      }
      for (int64_t c = 0; c < num_clusters; ++c) {
        if (hit_entries[c] >= 0) {
          block.reused_from_cache[static_cast<size_t>(c)] = true;
        } else {
          miss_clusters[num_miss++] = static_cast<int32_t>(c);
        }
      }
      batch_reused += num_hits;
    } else {
      for (int64_t c = 0; c < num_clusters; ++c) {
        miss_clusters[num_miss++] = static_cast<int32_t>(c);
      }
    }

    // 2. One GEMM over the centroids that missed: y_c = x_c * W_I.
    if (num_miss > 0) {
      const bool all_miss = num_miss == num_clusters;
      if (all_miss) {
        Gemm(block.centroids.data(), w_block, yc, num_clusters, length, m);
      } else {
        // Centroid gather: pack the missed centroids contiguously for one
        // GEMM, then scatter its rows back. Both sides write disjoint
        // rows per index, so row chunks parallelize deterministically.
        float* compact = scratch->Floats(num_miss * length);
        float* compact_y = scratch->Floats(num_miss * m);
        ParallelFor(num_miss, GrainForCost(length),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        std::memcpy(
                            compact + i * length,
                            block.centroids.data() +
                                miss_clusters[i] * length,
                            sizeof(float) * static_cast<size_t>(length));
                      }
                    });
        Gemm(compact, w_block, compact_y, num_miss, length, m);
        ParallelFor(num_miss, GrainForCost(m),
                    [&](int64_t begin, int64_t end) {
                      for (int64_t i = begin; i < end; ++i) {
                        std::memcpy(yc + miss_clusters[i] * m,
                                    compact_y + i * m,
                                    sizeof(float) * static_cast<size_t>(m));
                      }
                    });
      }
      gemm_macs += static_cast<double>(num_miss) * length * m;
      if (cache != nullptr) {
        cache->InsertBatch(static_cast<int64_t>(bi), block.signatures.data(),
                           miss_clusters, num_miss, block.centroids.data(),
                           length, yc, m);
      }
    }

    // 3. Reconstruct: y[i] += y_c[cluster(i)].
    ScatterClusterOutputs(yc, block.clustering, num_rows, m, y);
    scatter_macs += static_cast<double>(num_rows) * m;
  }

  if (bias != nullptr) {
    AddRowBias(bias->data(), y, num_rows, m);
  }

  // Hash MACs: N * L_I * H per block = N * K * H in total.
  double hash_macs = 0.0;
  for (const auto& block : clustering->blocks) {
    hash_macs += static_cast<double>(num_rows) * block.length * num_hashes;
  }
  stats->forward_calls = 1;
  stats->avg_remaining_ratio = clustering->AverageRemainingRatio();
  stats->macs_executed = hash_macs + gemm_macs + scatter_macs;
  stats->macs_baseline = static_cast<double>(num_rows) * k * m;
  stats->clusters_total = batch_clusters;
  stats->clusters_reused = batch_reused;
  stats->last_batch_reuse_rate =
      batch_clusters == 0 ? 0.0
                          : static_cast<double>(batch_reused) /
                                static_cast<double>(batch_clusters);
}

}  // namespace

void ClusteredForward(const BlockLshFamilies& families,
                      const ConvGeometry& geo, const float* input,
                      const Tensor& weight, const Tensor* bias,
                      int64_t rows_per_group, ClusterReuseCache* cache,
                      WorkspaceArena* arena,
                      StreamingSubVectorClusterer* clusterer, float* y,
                      ReuseClustering* clustering, ReuseLayerStats* stats) {
  const int64_t n = geo.unfolded_rows();
  const int64_t k = families.k();
  ADR_CHECK_EQ(geo.unfolded_cols(), k);
  ADR_CHECK_EQ(weight.shape().rank(), 2);
  ADR_CHECK_EQ(weight.shape()[0], k);
  ADR_CHECK(clusterer != nullptr);

  ADR_TRACE_SPAN("ClusteredForward");
  *stats = ReuseLayerStats{};
  Timer timer;
  ScratchAllocator scratch(arena);

  // 1. Stream L2-sized row tiles through hash + cluster. Each tile is
  // unfolded in parallel over row sub-ranges; ConsumeTile hashes its rows
  // in parallel row chunks.
  {
    ADR_TRACE_SPAN("lsh_cluster");
    clusterer->Begin(&families, n, rows_per_group);
    const int64_t tile_rows = L2TileRows(k);
    float* tile = scratch.Floats(tile_rows * k);
    for (int64_t row = 0; row < n; row += tile_rows) {
      const int64_t count = std::min(tile_rows, n - row);
      ParallelFor(count, 32, [&](int64_t begin, int64_t end) {
        Im2ColRows(geo, input, row + begin, row + end, tile + begin * k);
      });
      clusterer->ConsumeTile(tile, row, count);
    }
    *clustering = clusterer->Finish();
  }
  stats->hash_seconds = timer.ElapsedSeconds();

  // 2. Cache lookup and gather-GEMM over the centroids only, then scatter.
  timer.Reset();
  FinishForwardFromClustering(clustering, weight, bias, cache,
                              families.family(0).num_hashes(), &scratch, y,
                              stats);
  stats->gemm_seconds = timer.ElapsedSeconds();
}

}  // namespace adr
