// Allocating matrix forms of the two reuse passes, for tests. The library
// has one entry per pass, over a convolution geometry; a test holding the
// N x K unfolded matrix itself passes it under MatrixGeometry(N, K), which
// unfolds (and folds) each row unchanged. Each call uses a fresh clusterer
// and heap scratch.

#ifndef ADR_TESTS_MATRIX_REUSE_H_
#define ADR_TESTS_MATRIX_REUSE_H_

#include <cstdint>

#include "core/cluster_cache.h"
#include "core/clustered_matmul.h"
#include "core/reuse_backward.h"
#include "core/subvector_clustering.h"
#include "nn/reuse_stats.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "util/check.h"

namespace adr {

struct MatrixForwardResult {
  Tensor y_rows;               ///< [N, M]
  ReuseClustering clustering;  ///< input to MatrixBackward
  ReuseLayerStats stats;
};

/// \brief ClusteredForward over the `num_rows` x K matrix `x`.
inline MatrixForwardResult MatrixForward(const BlockLshFamilies& families,
                                         const float* x, int64_t num_rows,
                                         const Tensor& weight,
                                         const Tensor* bias,
                                         int64_t rows_per_group,
                                         ClusterReuseCache* cache) {
  MatrixForwardResult result;
  result.y_rows = Tensor(Shape({num_rows, weight.shape()[1]}));
  StreamingSubVectorClusterer clusterer;
  ClusteredForward(families, MatrixGeometry(num_rows, families.k()), x,
                   weight, bias, rows_per_group, cache, /*arena=*/nullptr,
                   &clusterer, result.y_rows.data(), &result.clustering,
                   &result.stats);
  return result;
}

struct MatrixBackwardResult {
  Tensor grad_weight;  ///< [K, M]
  Tensor grad_bias;    ///< [M]
  Tensor grad_x;       ///< [N, K], the unfolded input delta
  ReuseLayerStats stats;
};

/// \brief ReuseBackwardInto with `dy` ([N, M]) over the matrix geometry,
/// so grad_x is the N x K unfolded delta.
inline MatrixBackwardResult MatrixBackward(const ReuseClustering& clustering,
                                           const Tensor& weight,
                                           const Tensor& dy) {
  const int64_t n = clustering.num_rows;
  const int64_t k = clustering.num_cols;
  const int64_t m = weight.shape()[1];
  ADR_CHECK(dy.shape() == Shape({n, m}));
  MatrixBackwardResult result;
  result.grad_weight = Tensor(Shape({k, m}));
  result.grad_bias = Tensor(Shape({m}));
  result.grad_x = Tensor(Shape({n, k}));
  ReuseBackwardInto(clustering, weight, dy.data(), MatrixGeometry(n, k),
                    /*arena=*/nullptr, result.grad_weight.data(),
                    result.grad_bias.data(), result.grad_x.data(),
                    &result.stats);
  return result;
}

}  // namespace adr

#endif  // ADR_TESTS_MATRIX_REUSE_H_
