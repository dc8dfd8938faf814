#include "core/reuse_backward.h"

#include <algorithm>
#include <cstring>

#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace adr {

namespace {

// Enough fold groups to keep a few threads busy; at most one per image
// (ConvBackwardInput's rule).
constexpr int64_t kMaxFoldGroups = 8;

// Fills `tile` (rows x K) with rows [row0, row0 + rows) of the unfolded
// input delta: row i, block I holds dx_c of block I at i's cluster.
// Block I's dx_c is |C_I| x L_I at dx_c + first[I] * dx_stride.
void FillDeltaRows(const ReuseClustering& clustering, const float* dx_c,
                   const int64_t* first, int64_t dx_stride, int64_t row0,
                   int64_t rows, float* tile) {
  const int64_t k = clustering.num_cols;
  for (size_t b = 0; b < clustering.blocks.size(); ++b) {
    const SubMatrixClustering& block = clustering.blocks[b];
    const int64_t length = block.length;
    const float* src = dx_c + first[b] * dx_stride;
    const int32_t* assignment = block.clustering.assignment.data() + row0;
    float* dst = tile + block.col_offset;
    for (int64_t r = 0; r < rows; ++r, dst += k) {
      const float* from = src + assignment[r] * length;
      std::memcpy(dst, from, sizeof(float) * static_cast<size_t>(length));
    }
  }
}

}  // namespace

void ReuseBackwardInto(const ReuseClustering& clustering,
                       const Tensor& weight, const float* dy,
                       const ConvGeometry& geo, WorkspaceArena* arena,
                       float* grad_weight, float* grad_bias,
                       float* grad_input, ReuseLayerStats* stats) {
  const int64_t n = clustering.num_rows;
  const int64_t k = clustering.num_cols;
  ADR_CHECK_EQ(weight.shape().rank(), 2);
  ADR_CHECK_EQ(weight.shape()[0], k);
  ADR_CHECK_EQ(geo.unfolded_rows(), n);
  ADR_CHECK_EQ(geo.unfolded_cols(), k);
  ADR_CHECK(!clustering.blocks.empty());
  const int64_t m = weight.shape()[1];
  const size_t num_blocks = clustering.blocks.size();
  const simd::Kernels& kernels = simd::Active();

  Timer timer;
  ScratchAllocator scratch(arena);
  double macs = 0.0;
  ColumnSumsInto(dy, n, m, grad_bias);

  // Flat (block, cluster) index: block b's clusters are
  // [first[b], first[b + 1]).
  int64_t* first = scratch.Int64(static_cast<int64_t>(num_blocks) + 1);
  first[0] = 0;
  int64_t dx_stride = 0;  // the widest block
  for (size_t b = 0; b < num_blocks; ++b) {
    dx_stride = std::max(dx_stride, clustering.blocks[b].length);
    const Clustering& c = clustering.blocks[b].clustering;
    ADR_CHECK_EQ(c.num_rows(), n);
    ADR_CHECK(static_cast<int64_t>(c.members.size()) == n &&
              static_cast<int64_t>(c.member_start.size()) ==
                  c.num_clusters() + 1)
        << "block " << b << " has no member lists (BuildMemberLists)";
    first[b + 1] = first[b] + c.num_clusters();
  }
  const int64_t total = first[num_blocks];
  // Maps a chunk's first flat index to its block.
  const auto block_of = [&](int64_t t) {
    return static_cast<size_t>(std::upper_bound(first, first + num_blocks,
                                                t) -
                               first - 1);
  };

  // dy_{c,s}: each cluster's dy rows summed from zero in ascending row
  // order (Eq. 8). Every (block, cluster) owns its row of `sums`.
  float* sums = scratch.Floats(total * m);
  ParallelFor(total,
              GrainForCost(n * static_cast<int64_t>(num_blocks) * m / total),
              [&](int64_t begin, int64_t end) {
                size_t b = block_of(begin);
                for (int64_t t = begin; t < end; ++t) {
                  while (t >= first[b + 1]) ++b;
                  const Clustering& c = clustering.blocks[b].clustering;
                  const size_t cl = static_cast<size_t>(t - first[b]);
                  const int64_t* start = c.member_start.data() + cl;
                  float* dst = sums + t * m;
                  std::fill_n(dst, m, 0.0f);
                  kernels.gather_add(dy, m, c.members.data() + start[0],
                                     start[1] - start[0], dst, m);
                }
              });
  macs += static_cast<double>(n * static_cast<int64_t>(num_blocks) - total) *
          m;

  // dW_I = x_c^T * dy_{c,s} (Eq. 10), written into rows
  // [col_offset, col_offset + L) of dW. The blocks tile [0, K), so dW
  // is fully overwritten.
  for (size_t b = 0; b < num_blocks; ++b) {
    const SubMatrixClustering& block = clustering.blocks[b];
    const int64_t num_clusters = first[b + 1] - first[b];
    GemmTransA(block.centroids.data(), sums + first[b] * m,
               grad_weight + block.col_offset * m, block.length,
               num_clusters, m);
    macs += static_cast<double>(num_clusters) * block.length * m;
  }

  // dy_{c,sa}: average instead of sum (divide each row by N_l).
  ParallelFor(total, GrainForCost(m), [&](int64_t begin, int64_t end) {
    size_t b = block_of(begin);
    for (int64_t t = begin; t < end; ++t) {
      while (t >= first[b + 1]) ++b;
      const int64_t size = clustering.blocks[b].clustering.cluster_sizes
                               [static_cast<size_t>(t - first[b])];
      kernels.scale(1.0f / static_cast<float>(size), sums + t * m, m);
    }
  });

  // dx_c = dy_{c,sa} * W_I^T (Eq. 18), kept for every block: block b's
  // |C_b| x L_b rows start at first[b] * dx_stride.
  float* dx_c = scratch.Floats(total * dx_stride);
  for (size_t b = 0; b < num_blocks; ++b) {
    const SubMatrixClustering& block = clustering.blocks[b];
    const int64_t num_clusters = first[b + 1] - first[b];
    GemmTransB(sums + first[b] * m, weight.data() + block.col_offset * m,
               dx_c + first[b] * dx_stride, num_clusters, m, block.length);
    macs += static_cast<double>(num_clusters) * block.length * m;
  }

  // Fold (Eq. 13 then col2im): each group zeroes its images, then fills
  // one L2-sized tile at a time with member rows of dx_c and accumulates
  // it into grad_input. A tile may span images; each image still receives
  // its own rows in ascending order, as in Col2Im.
  const int64_t rows_per_image = geo.rows_per_image();
  const int64_t img_size = geo.in_channels * geo.in_height * geo.in_width;
  const int64_t groups = std::min(geo.batch, kMaxFoldGroups);
  const int64_t tile_rows =
      std::min(L2TileRows(k),
               (geo.batch + groups - 1) / groups * rows_per_image);
  float* tiles = scratch.Floats(groups * tile_rows * k);
  ParallelFor(groups, 1, [&](int64_t g_begin, int64_t g_end) {
    for (int64_t g = g_begin; g < g_end; ++g) {
      float* tile = tiles + g * tile_rows * k;
      const int64_t img_begin = g * geo.batch / groups;
      const int64_t img_end = (g + 1) * geo.batch / groups;
      std::fill(grad_input + img_begin * img_size,
                grad_input + img_end * img_size, 0.0f);
      const int64_t row_end = img_end * rows_per_image;
      for (int64_t row = img_begin * rows_per_image; row < row_end;
           row += tile_rows) {
        const int64_t rows = std::min(tile_rows, row_end - row);
        FillDeltaRows(clustering, dx_c, first, dx_stride, row, rows, tile);
        Col2ImRows(geo, tile, row, row + rows, grad_input);
      }
    }
  });

  *stats = ReuseLayerStats{};
  stats->backward_seconds = timer.ElapsedSeconds();
  stats->macs_executed = macs;
  stats->macs_baseline = 2.0 * static_cast<double>(n) * k * m;
}

}  // namespace adr
