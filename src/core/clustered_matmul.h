// Forward-pass computation reuse: y = x * W computed on cluster centroids
// only (paper Section III), optionally consulting the cross-batch cluster
// reuse cache (Algorithm 1).

#ifndef ADR_CORE_CLUSTERED_MATMUL_H_
#define ADR_CORE_CLUSTERED_MATMUL_H_

#include <cstdint>

#include "core/cluster_cache.h"
#include "core/subvector_clustering.h"
#include "nn/reuse_stats.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"

namespace adr {

/// \brief The LSH forward: computes y = x * W (+ bias) through centroid
/// reuse, where x is the N x K unfolding of the NCHW `input` under `geo`.
/// x is unfolded one L2TileRows-sized tile at a time into arena scratch
/// and streamed through the caller-owned `clusterer`: the N x K matrix
/// never exists. Then, per column block, the cross-batch `cache`
/// (Algorithm 1, skipped when null) serves the clusters it knows, one GEMM
/// runs over the remaining centroids, and the cluster outputs are
/// scattered back to the member rows.
///
/// A caller holding an N x K matrix passes it as `input` under
/// MatrixGeometry(N, K), which unfolds each row unchanged. `weight` is
/// [K, M]; `bias` is [M] or nullptr; `rows_per_group` sets the clustering
/// scope (see StreamingSubVectorClusterer). `y` is N x M, overwritten. The
/// clusterer's buffers (and, via Recycle, the returned clustering's)
/// persist across steps; scratch comes from `arena` (heap fallback when
/// null). `stats` is overwritten with this call's record.
void ClusteredForward(const BlockLshFamilies& families,
                      const ConvGeometry& geo, const float* input,
                      const Tensor& weight, const Tensor* bias,
                      int64_t rows_per_group, ClusterReuseCache* cache,
                      WorkspaceArena* arena,
                      StreamingSubVectorClusterer* clusterer, float* y,
                      ReuseClustering* clustering, ReuseLayerStats* stats);

}  // namespace adr

#endif  // ADR_CORE_CLUSTERED_MATMUL_H_
