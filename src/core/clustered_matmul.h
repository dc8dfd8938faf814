// Forward-pass computation reuse: y = x * W computed on cluster centroids
// only (paper Section III), optionally consulting the cross-batch cluster
// reuse cache (Algorithm 1).

#ifndef ADR_CORE_CLUSTERED_MATMUL_H_
#define ADR_CORE_CLUSTERED_MATMUL_H_

#include <cstdint>
#include <vector>

#include "core/cluster_cache.h"
#include "core/subvector_clustering.h"
#include "nn/reuse_stats.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"

namespace adr {

/// \brief Result of the reuse forward pass.
struct ForwardReuseResult {
  Tensor y_rows;               ///< [N, M]
  ReuseClustering clustering;  ///< retained for the backward pass
  ReuseLayerStats stats;       ///< this call's record
};

/// \brief The N x K unfolded rows a clustered forward reads, from one of
/// two sources.
struct ForwardRows {
  /// \brief Rows unfolded from the NCHW `input` one L2TileRows-sized tile
  /// at a time, into arena scratch: the N x K matrix never exists, which
  /// shifts the forward footprint from O(N*K) toward O(tile*K + |C|*K).
  static ForwardRows Unfold(const ConvGeometry& geo, const float* input) {
    return {input, geo.unfolded_rows(), geo, true};
  }
  /// \brief An existing row-major `num_rows` x K matrix, read in place.
  static ForwardRows Matrix(const float* x, int64_t num_rows) {
    return {x, num_rows, ConvGeometry{}, false};
  }

  const float* data;  ///< the NCHW input, or the matrix
  int64_t num_rows;   ///< N
  ConvGeometry geo;   ///< meaningful only when `unfold`
  bool unfold;
};

/// \brief The LSH forward: computes y = x * W (+ bias) through centroid
/// reuse. Row tiles of `rows` stream through the caller-owned
/// `clusterer`; then, per column block, the cross-batch `cache` (Algorithm
/// 1, skipped when null) serves the clusters it knows, one GEMM runs over
/// the remaining centroids, and the cluster outputs are scattered back to
/// the member rows.
///
/// Both row sources give bit-identical signatures, clusterings and `y`.
/// `weight` is [K, M]; `bias` is [M] or nullptr; `rows_per_group` sets the
/// clustering scope (see StreamingSubVectorClusterer). `y` is
/// num_rows x M, overwritten. The clusterer's buffers (and, via Recycle,
/// the returned clustering's) persist across steps; scratch comes from
/// `arena` (heap fallback when null). `stats` is overwritten with this
/// call's record.
void ClusteredForward(const BlockLshFamilies& families,
                      const ForwardRows& rows, const Tensor& weight,
                      const Tensor* bias, int64_t rows_per_group,
                      ClusterReuseCache* cache, WorkspaceArena* arena,
                      StreamingSubVectorClusterer* clusterer, float* y,
                      ReuseClustering* clustering, ReuseLayerStats* stats);

/// \brief ClusteredForward over the `num_rows` x K matrix `x`, with its
/// own clusterer and heap scratch, returning freshly allocated results.
ForwardReuseResult ClusteredMatmulForward(const BlockLshFamilies& families,
                                          const float* x, int64_t num_rows,
                                          const Tensor& weight,
                                          const Tensor* bias,
                                          int64_t rows_per_group,
                                          ClusterReuseCache* cache);

}  // namespace adr

#endif  // ADR_CORE_CLUSTERED_MATMUL_H_
