// Bitwise reference for the reuse backward of core/reuse_backward.h.
// Tests and benches only; nothing under src/ includes this file.
//
// ReferenceBackward computes each block's step the plain way, serially:
//   - sums[assignment[i]] += dy[i] over ascending rows i, from zero;
//   - dW_I = GemmTransA(centroids, sums);
//   - sums scaled by 1 / cluster size, then dx_c = GemmTransB(sums, W_I);
//   - dx_c scattered to every member row of an N x K matrix, which Col2Im
//     folds into the NCHW input delta.
// It reads the assignment, not the member lists, and builds the N x K
// matrix the production fold avoids. reuse_backward_test requires
// ReuseBackwardInto to match it bit for bit on every SIMD backend and
// thread count.

#ifndef ADR_TESTS_REUSE_BACKWARD_REFERENCE_H_
#define ADR_TESTS_REUSE_BACKWARD_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "core/subvector_clustering.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "util/check.h"

namespace adr {

struct ReferenceBackwardResult {
  Tensor grad_weight;  ///< [K, M]
  Tensor grad_bias;    ///< [M]
  Tensor grad_cols;    ///< [N, K], before the fold
  Tensor grad_input;   ///< [Nb, Ic, Ih, Iw]
};

inline ReferenceBackwardResult ReferenceBackward(
    const ReuseClustering& clustering, const Tensor& weight, const float* dy,
    const ConvGeometry& geo) {
  const int64_t n = clustering.num_rows;
  const int64_t k = clustering.num_cols;
  const int64_t m = weight.shape()[1];
  ADR_CHECK_EQ(geo.unfolded_rows(), n);
  ADR_CHECK_EQ(geo.unfolded_cols(), k);
  ReferenceBackwardResult result;
  result.grad_weight = Tensor(Shape({k, m}));
  result.grad_bias = Tensor(Shape({m}));
  result.grad_cols = Tensor(Shape({n, k}));
  result.grad_input = Tensor(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}));

  float* db = result.grad_bias.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) db[j] += dy[i * m + j];
  }

  for (const SubMatrixClustering& block : clustering.blocks) {
    const Clustering& c = block.clustering;
    const int64_t num_clusters = c.num_clusters();
    const int64_t length = block.length;
    std::vector<float> sums(static_cast<size_t>(num_clusters * m), 0.0f);
    for (int64_t i = 0; i < n; ++i) {
      float* dst = sums.data() + c.assignment[static_cast<size_t>(i)] * m;
      for (int64_t j = 0; j < m; ++j) dst[j] += dy[i * m + j];
    }
    GemmTransA(block.centroids.data(), sums.data(),
               result.grad_weight.data() + block.col_offset * m, length,
               num_clusters, m);
    for (int64_t cl = 0; cl < num_clusters; ++cl) {
      const float inv =
          1.0f / static_cast<float>(c.cluster_sizes[static_cast<size_t>(cl)]);
      for (int64_t j = 0; j < m; ++j) {
        sums[static_cast<size_t>(cl * m + j)] *= inv;
      }
    }
    std::vector<float> dx_c(static_cast<size_t>(num_clusters * length));
    GemmTransB(sums.data(), weight.data() + block.col_offset * m,
               dx_c.data(), num_clusters, m, length);
    for (int64_t i = 0; i < n; ++i) {
      const float* from =
          dx_c.data() + c.assignment[static_cast<size_t>(i)] * length;
      float* to = result.grad_cols.data() + i * k + block.col_offset;
      for (int64_t j = 0; j < length; ++j) to[j] = from[j];
    }
  }
  Col2Im(geo, result.grad_cols.data(), result.grad_input.data());
  return result;
}

}  // namespace adr

#endif  // ADR_TESTS_REUSE_BACKWARD_REFERENCE_H_
