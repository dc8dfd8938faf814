#include "core/reuse_backward.h"

#include <algorithm>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace adr {

namespace {

// The per-cluster dy reduction is chunked into a fixed number of row
// ranges whose partial sums are combined in chunk order. The layout
// depends only on N — never on the thread count — so the reduction is
// bit-deterministic for 1, 2, or any number of threads.
constexpr int64_t kReduceChunks = 8;

// dy_sum[cl] = sum of dy rows assigned to cluster cl (Eq. 8). `sums` and
// `partials` (chunks * |C| * m floats) may be uninitialized; both are
// zero-filled here before accumulation.
void ClusterRowSums(const float* dy, const Clustering& clustering, int64_t n,
                    int64_t m, float* partials, float* sums) {
  const simd::Kernels& kernels = simd::Active();
  const int64_t num_clusters = clustering.num_clusters();
  const int64_t chunks = std::min<int64_t>(kReduceChunks, n);
  std::fill_n(partials, static_cast<size_t>(chunks * num_clusters * m),
              0.0f);
  std::fill_n(sums, static_cast<size_t>(num_clusters * m), 0.0f);
  ThreadPool::Global()->Run(chunks, [&](int64_t c) {
    const int64_t begin = c * n / chunks;
    const int64_t end = (c + 1) * n / chunks;
    float* part = partials + c * num_clusters * m;
    for (int64_t i = begin; i < end; ++i) {
      kernels.add(dy + i * m,
                  part + clustering.assignment[static_cast<size_t>(i)] * m,
                  m);
    }
  });
  // Combine in ascending chunk order; cluster rows are disjoint, so the
  // combine itself parallelizes over clusters.
  ParallelFor(num_clusters, GrainForCost(chunks * m),
              [&](int64_t cl_begin, int64_t cl_end) {
                for (int64_t cl = cl_begin; cl < cl_end; ++cl) {
                  float* dst = sums + cl * m;
                  for (int64_t c = 0; c < chunks; ++c) {
                    kernels.add(partials + (c * num_clusters + cl) * m, dst,
                                m);
                  }
                }
              });
}

}  // namespace

void ReuseBackwardInto(const ReuseClustering& clustering,
                       const Tensor& weight, const float* dy,
                       WorkspaceArena* arena, float* grad_weight,
                       float* grad_bias, float* grad_x,
                       ReuseLayerStats* stats) {
  const int64_t n = clustering.num_rows;
  const int64_t k = clustering.num_cols;
  ADR_CHECK_EQ(weight.shape().rank(), 2);
  ADR_CHECK_EQ(weight.shape()[0], k);
  const int64_t m = weight.shape()[1];

  Timer timer;
  ScratchAllocator scratch(arena);
  double macs = 0.0;
  ColumnSumsInto(dy, n, m, grad_bias);

  for (const SubMatrixClustering& block : clustering.blocks) {
    const int64_t num_clusters = block.clustering.num_clusters();
    const int64_t length = block.length;
    const float* w_block = weight.data() + block.col_offset * m;
    const int64_t chunks = std::min<int64_t>(kReduceChunks, n);

    // dy_{c,s}: sum the dy rows of each cluster (Eq. 8).
    float* sums = scratch.Floats(num_clusters * m);
    float* partials = scratch.Floats(chunks * num_clusters * m);
    ClusterRowSums(dy, block.clustering, n, m, partials, sums);
    macs += static_cast<double>(n - num_clusters) * m;

    // dW_I = x_c^T * dy_{c,s} (Eq. 10), written into rows
    // [col_offset, col_offset + L) of dW. The blocks tile [0, K), so dW
    // is fully overwritten.
    GemmTransA(block.centroids.data(), sums,
               grad_weight + block.col_offset * m, length, num_clusters, m);
    macs += static_cast<double>(num_clusters) * length * m;

    // dy_{c,sa}: average instead of sum (divide each row by N_l).
    const simd::Kernels& kernels = simd::Active();
    ParallelFor(num_clusters, GrainForCost(m),
                [&](int64_t begin, int64_t end) {
                  for (int64_t c = begin; c < end; ++c) {
                    kernels.scale(
                        1.0f / static_cast<float>(
                                   block.clustering.cluster_sizes
                                       [static_cast<size_t>(c)]),
                        sums + c * m, m);
                  }
                });

    // dx_c = dy_{c,sa} * W_I^T (Eq. 18).
    float* dx_c = scratch.Floats(num_clusters * length);
    GemmTransB(sums, w_block, dx_c, num_clusters, m, length);
    macs += static_cast<double>(num_clusters) * length * m;

    // Scatter the centroid delta to every member row (Eq. 13); column
    // ranges tile [0, K), so dx is fully overwritten.
    ScatterRows(dx_c, length, block.clustering, grad_x + block.col_offset,
                k);
  }

  *stats = ReuseLayerStats{};
  stats->backward_seconds = timer.ElapsedSeconds();
  stats->macs_executed = macs;
  stats->macs_baseline = 2.0 * static_cast<double>(n) * k * m;
}

BackwardReuseResult ReuseBackward(const ReuseClustering& clustering,
                                  const Tensor& weight, const Tensor& dy) {
  const int64_t n = clustering.num_rows;
  const int64_t k = clustering.num_cols;
  ADR_CHECK_EQ(weight.shape().rank(), 2);
  const int64_t m = weight.shape()[1];
  ADR_CHECK(dy.shape() == Shape({n, m}));

  BackwardReuseResult result;
  result.grad_weight = Tensor(Shape({k, m}));
  result.grad_bias = Tensor(Shape({m}));
  result.grad_x = Tensor(Shape({n, k}));
  ReuseBackwardInto(clustering, weight, dy.data(), /*arena=*/nullptr,
                    result.grad_weight.data(), result.grad_bias.data(),
                    result.grad_x.data(), &result.stats);
  return result;
}

}  // namespace adr
