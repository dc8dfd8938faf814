#include "clustering/clustering.h"

#include "tensor/simd.h"
#include "util/check.h"

namespace adr {

Tensor ComputeCentroids(const float* data, int64_t num_rows, int64_t row_dim,
                        int64_t row_stride, const Clustering& clustering) {
  ADR_CHECK_EQ(num_rows, clustering.num_rows());
  const simd::Kernels& kernels = simd::Active();
  const int64_t num_clusters = clustering.num_clusters();
  Tensor centroids(Shape({num_clusters, row_dim}));
  float* c = centroids.data();
  for (int64_t i = 0; i < num_rows; ++i) {
    const int32_t cl = clustering.assignment[i];
    ADR_DCHECK(cl >= 0 && cl < num_clusters);
    kernels.add(data + i * row_stride, c + cl * row_dim, row_dim);
  }
  for (int64_t cl = 0; cl < num_clusters; ++cl) {
    const int64_t size = clustering.cluster_sizes[cl];
    ADR_CHECK_GT(size, 0) << "empty cluster " << cl;
    kernels.scale(1.0f / static_cast<float>(size), c + cl * row_dim,
                  row_dim);
  }
  return centroids;
}

void BuildMemberLists(Clustering* clustering) {
  const int64_t n = clustering->num_rows();
  const int64_t num_clusters = clustering->num_clusters();
  std::vector<int64_t>& start = clustering->member_start;
  start.resize(static_cast<size_t>(num_clusters + 1));
  clustering->members.resize(static_cast<size_t>(n));
  // start[c + 1] begins as the first slot of cluster c and serves as its
  // fill cursor; after the fill it has advanced to the end of cluster c,
  // which is the first slot of cluster c + 1.
  start[0] = 0;
  if (num_clusters > 0) start[1] = 0;
  for (int64_t c = 1; c < num_clusters; ++c) {
    start[static_cast<size_t>(c + 1)] =
        start[static_cast<size_t>(c)] +
        clustering->cluster_sizes[static_cast<size_t>(c - 1)];
  }
  for (int64_t i = 0; i < n; ++i) {
    const int32_t cl = clustering->assignment[static_cast<size_t>(i)];
    ADR_DCHECK(cl >= 0 && cl < num_clusters);
    int64_t& cursor = start[static_cast<size_t>(cl + 1)];
    ADR_DCHECK(cursor < n);
    clustering->members[static_cast<size_t>(cursor++)] =
        static_cast<int32_t>(i);
  }
  ADR_CHECK_EQ(start[static_cast<size_t>(num_clusters)], n)
      << "cluster_sizes do not sum to the row count";
}

}  // namespace adr
