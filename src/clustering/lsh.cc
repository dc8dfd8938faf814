#include "clustering/lsh.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/parallel.h"

namespace adr {

// project_signs writes two plain words per row; HashRowsInto copies them
// into the signatures bytewise.
static_assert(sizeof(LshSignature) == 2 * sizeof(uint64_t) &&
              std::is_trivially_copyable_v<LshSignature>);

Status LshFamily::Create(int64_t dim, int num_hashes, uint64_t seed,
                         LshFamily* out) {
  if (dim <= 0) {
    return Status::InvalidArgument("LSH dimension must be > 0, got " +
                                   std::to_string(dim));
  }
  if (num_hashes < 1 || num_hashes > kMaxLshHashes) {
    return Status::InvalidArgument(
        "LSH num_hashes must be in [1, " + std::to_string(kMaxLshHashes) +
        "], got " + std::to_string(num_hashes));
  }
  out->dim_ = dim;
  out->num_hashes_ = num_hashes;
  out->plane_stride_ = (num_hashes + simd::kProjectionPad - 1) /
                       simd::kProjectionPad * simd::kProjectionPad;
  // Sample hyperplane-major (fixed RNG order, so signatures are stable
  // across releases), then transpose into the padded kernel layout.
  std::vector<float> planes(static_cast<size_t>(num_hashes) * dim);
  Rng rng(seed);
  for (auto& v : planes) v = rng.NextGaussian();
  out->hyperplanes_t_.assign(static_cast<size_t>(dim * out->plane_stride_),
                             0.0f);
  for (int h = 0; h < num_hashes; ++h) {
    for (int64_t j = 0; j < dim; ++j) {
      out->hyperplanes_t_[static_cast<size_t>(j * out->plane_stride_ + h)] =
          planes[static_cast<size_t>(h) * dim + j];
    }
  }
  return Status::OK();
}

LshSignature LshFamily::Hash(const float* row) const {
  LshSignature sig;
  HashRowsInto(row, 1, dim_, &sig);
  return sig;
}

void LshFamily::HashRows(const float* data, int64_t num_rows,
                         int64_t row_stride,
                         std::vector<LshSignature>* out) const {
  out->resize(static_cast<size_t>(num_rows));
  LshSignature* sigs = out->data();
  // Each row owns its signature slot, so row chunks are race-free and
  // the result is independent of the thread count.
  ParallelFor(num_rows, GrainForCost(dim_ * plane_stride_),
              [&](int64_t begin, int64_t end) {
                HashRowsInto(data + begin * row_stride, end - begin,
                             row_stride, sigs + begin);
              });
}

void LshFamily::HashRowsInto(const float* data, int64_t num_rows,
                             int64_t row_stride, LshSignature* out) const {
  const simd::Kernels& kernels = simd::Active();
  constexpr int64_t kBatchRows = 64;
  uint64_t words[2 * kBatchRows];
  for (int64_t i = 0; i < num_rows; i += kBatchRows) {
    const int64_t rows = std::min(kBatchRows, num_rows - i);
    kernels.project_signs(data + i * row_stride, row_stride,
                          hyperplanes_t_.data(), plane_stride_, rows, dim_,
                          num_hashes_, words);
    std::memcpy(out + i, words,
                sizeof(LshSignature) * static_cast<size_t>(rows));
  }
}

Clustering ClusterBySignature(const std::vector<LshSignature>& row_signatures,
                              std::vector<LshSignature>* signatures_out) {
  Clustering clustering;
  clustering.assignment.resize(row_signatures.size());
  if (signatures_out != nullptr) signatures_out->clear();

  // Open-addressing (linear probing) table: clustering runs once per
  // column block per batch, so the constant factor matters. Slots hold
  // the cluster id; -1 is empty.
  size_t capacity = 16;
  while (capacity < 2 * row_signatures.size()) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<int32_t> slot_id(capacity, -1);
  std::vector<LshSignature> slot_sig(capacity);
  const LshSignatureHash hasher;

  for (size_t i = 0; i < row_signatures.size(); ++i) {
    const LshSignature& sig = row_signatures[i];
    size_t slot = hasher(sig) & mask;
    while (slot_id[slot] >= 0 && !(slot_sig[slot] == sig)) {
      slot = (slot + 1) & mask;
    }
    int32_t id = slot_id[slot];
    if (id < 0) {
      id = static_cast<int32_t>(clustering.cluster_sizes.size());
      slot_id[slot] = id;
      slot_sig[slot] = sig;
      clustering.cluster_sizes.push_back(0);
      if (signatures_out != nullptr) signatures_out->push_back(sig);
    }
    clustering.assignment[i] = id;
    ++clustering.cluster_sizes[static_cast<size_t>(id)];
  }
  return clustering;
}

Clustering LshCluster(const LshFamily& family, const float* data,
                      int64_t num_rows, int64_t row_stride,
                      std::vector<LshSignature>* signatures_out) {
  std::vector<LshSignature> sigs;
  family.HashRows(data, num_rows, row_stride, &sigs);
  return ClusterBySignature(sigs, signatures_out);
}

}  // namespace adr
