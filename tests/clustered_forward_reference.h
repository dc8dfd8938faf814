// Bitwise references for the LSH forward of core/clustered_matmul.h.
// Tests and benches only; nothing under src/ includes this file.
//
//   - ReferenceHashRows: LSH hashing written out over Gemm: compact the
//     rows, one projection GEMM, then one sign bit at a time. The
//     project-and-sign kernel behind LshFamily must match it bit for bit.
//   - ClusterSubVectors: the materialized clusterer. It hashes each whole
//     scope group with ReferenceHashRows, groups with ClusterBySignature
//     and averages with ComputeCentroids. StreamingSubVectorClusterer must
//     reproduce it bit for bit, whatever the tiling.
//   - ReferenceClusterCache: the original map-based cluster-reuse cache.
//     Budgets follow the production policy written out over plain
//     containers: entry ids per block (recycled last-freed first), a
//     generation bumped per Insert/InsertBatch call, recency stamps set by
//     inserts and (while a budget is set) by hits, and a second-chance
//     clock over (block, entry id) that runs after each insert call. None
//     of the open-addressing table, rehashing or backward-shift deletion
//     it checks is shared. bench/micro_reuse.cc's BM_ReferenceCacheLookup
//     is the baseline of the slab cache's lookup speedup.
//   - ReferenceForward: ClusteredForward written out serially over the two
//     references above: one Find per cluster, a memcpy on each hit, one
//     compact GEMM over the misses, and one InsertBatch per block.
//
// fused_forward_test and cluster_cache_test require the production
// forward, with either row source, to match ReferenceForward bitwise: y,
// signatures, clusterings, hit decisions, counters, evictions, entries
// and resident bytes.

#ifndef ADR_TESTS_CLUSTERED_FORWARD_REFERENCE_H_
#define ADR_TESTS_CLUSTERED_FORWARD_REFERENCE_H_

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clustering/clustering.h"
#include "clustering/lsh.h"
#include "core/subvector_clustering.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace adr {

class ReferenceClusterCache {
 public:
  struct Entry {
    std::vector<float> representative;  ///< length L_I
    std::vector<float> output;          ///< length M
  };

  /// \brief Looks up a signature in block `block`; nullptr on miss.
  const Entry* Find(int64_t block, const LshSignature& signature) const {
    ADR_CHECK_GE(block, 0);
    ++lookups_;
    if (static_cast<size_t>(block) >= blocks_.size()) return nullptr;
    const BlockMap& map = blocks_[static_cast<size_t>(block)].map;
    const auto it = map.find(signature);
    if (it == map.end()) return nullptr;
    ++hits_;
    if (Budgeted()) it->second.stamp = generation_;
    return &it->second.entry;
  }

  /// \brief Inserts (overwrites) an entry, then evicts down to budget.
  void Insert(int64_t block, const LshSignature& signature, Entry entry) {
    ++generation_;
    InsertOne(block, signature, std::move(entry));
    EvictIfNeeded();
  }

  /// \brief Inserts entries in order as one call (one generation, one
  /// eviction pass at the end), like ClusterReuseCache::InsertBatch.
  void InsertBatch(int64_t block, const std::vector<LshSignature>& signatures,
                   std::vector<Entry> entries) {
    ADR_CHECK_EQ(signatures.size(), entries.size());
    ++generation_;
    for (size_t i = 0; i < signatures.size(); ++i) {
      InsertOne(block, signatures[i], std::move(entries[i]));
    }
    EvictIfNeeded();
  }

  void Clear() {
    blocks_.clear();
    lookups_ = 0;
    hits_ = 0;
    evictions_ = 0;
    live_entries_ = 0;
    live_bytes_ = 0;
    generation_ = 1;
    clock_block_ = 0;
  }

  int64_t TotalEntries() const {
    int64_t total = 0;
    for (const BlockState& state : blocks_) {
      total += static_cast<int64_t>(state.map.size());
    }
    return total;
  }

  /// \brief Bound on the entry count; 0 = unbounded.
  void set_max_entries(int64_t max_entries) { max_entries_ = max_entries; }
  int64_t max_entries() const { return max_entries_; }
  /// \brief Bound on ApproximateMemoryBytes(); 0 = unbounded.
  void set_max_bytes(int64_t max_bytes) { max_bytes_ = max_bytes; }
  int64_t evictions() const { return evictions_; }

  int64_t ApproximateMemoryBytes() const {
    int64_t bytes = 0;
    for (const BlockState& state : blocks_) {
      for (const auto& [signature, record] : state.map) {
        bytes += EntryBytes(record.entry);
      }
    }
    return bytes;
  }

  int64_t lookups() const { return lookups_; }
  int64_t hits() const { return hits_; }
  double ReuseRate() const {
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(hits_) /
                               static_cast<double>(lookups_);
  }

 private:
  struct Record {
    Entry entry;
    int32_t id = -1;
    mutable uint64_t stamp = 0;  ///< generation of the last insert or hit
    uint64_t visited = 0;        ///< stamp the clock last granted a pass
  };
  using BlockMap =
      std::unordered_map<LshSignature, Record, LshSignatureHash>;
  struct BlockState {
    BlockMap map;
    std::vector<LshSignature> id_signature;  ///< by entry id
    std::vector<char> id_live;
    std::vector<int32_t> free_ids;
    int64_t clock_hand = 0;
  };

  static int64_t EntryBytes(const Entry& entry) {
    return static_cast<int64_t>(sizeof(LshSignature)) +
           static_cast<int64_t>((entry.representative.size() +
                                 entry.output.size()) *
                                sizeof(float));
  }

  bool Budgeted() const { return max_entries_ > 0 || max_bytes_ > 0; }

  bool OverBudget() const {
    return (max_entries_ > 0 && live_entries_ > max_entries_) ||
           (max_bytes_ > 0 && live_bytes_ > max_bytes_);
  }

  void InsertOne(int64_t block, const LshSignature& signature, Entry entry) {
    ADR_CHECK_GE(block, 0);
    if (static_cast<size_t>(block) >= blocks_.size()) {
      blocks_.resize(static_cast<size_t>(block) + 1);
    }
    BlockState& state = blocks_[static_cast<size_t>(block)];
    auto it = state.map.find(signature);
    if (it == state.map.end()) {
      int32_t id = -1;
      if (state.free_ids.empty()) {
        id = static_cast<int32_t>(state.id_signature.size());
        state.id_signature.push_back(signature);
        state.id_live.push_back(1);
      } else {
        id = state.free_ids.back();
        state.free_ids.pop_back();
        state.id_signature[static_cast<size_t>(id)] = signature;
        state.id_live[static_cast<size_t>(id)] = 1;
      }
      it = state.map.emplace(signature, Record{}).first;
      it->second.id = id;
      // A new entry gets one pass before it can be evicted.
      it->second.visited = generation_ - 1;
      ++live_entries_;
      live_bytes_ += EntryBytes(entry);
    }
    it->second.entry = std::move(entry);
    it->second.stamp = generation_;
  }

  void EvictIfNeeded() {
    while (OverBudget() && live_entries_ > 0) {
      BlockState& state = blocks_[static_cast<size_t>(clock_block_)];
      const int64_t ids = static_cast<int64_t>(state.id_signature.size());
      if (state.map.empty() || state.clock_hand >= ids) {
        state.clock_hand = 0;
        clock_block_ =
            (clock_block_ + 1) % static_cast<int64_t>(blocks_.size());
        continue;
      }
      const int64_t id = state.clock_hand++;
      if (!state.id_live[static_cast<size_t>(id)]) continue;
      const auto it =
          state.map.find(state.id_signature[static_cast<size_t>(id)]);
      ADR_CHECK(it != state.map.end());
      Record& record = it->second;
      if (record.stamp != record.visited) {
        record.visited = record.stamp;
        continue;
      }
      live_bytes_ -= EntryBytes(record.entry);
      --live_entries_;
      state.id_live[static_cast<size_t>(id)] = 0;
      state.free_ids.push_back(static_cast<int32_t>(id));
      state.map.erase(it);
      ++evictions_;
    }
  }

  std::vector<BlockState> blocks_;
  mutable int64_t lookups_ = 0;
  mutable int64_t hits_ = 0;
  int64_t max_entries_ = 0;
  int64_t max_bytes_ = 0;
  int64_t evictions_ = 0;
  int64_t live_entries_ = 0;
  int64_t live_bytes_ = 0;
  uint64_t generation_ = 1;
  int64_t clock_block_ = 0;
};

/// \brief Signatures of `num_rows` rows of `family.dim()` floats at
/// `row_stride`: Gemm against the unpadded dimension-major hyperplanes,
/// then bit h set iff projection h is > 0.
inline void ReferenceHashRows(const LshFamily& family, const float* data,
                              int64_t num_rows, int64_t row_stride,
                              std::vector<LshSignature>* out) {
  const int64_t dim = family.dim();
  const int h = family.num_hashes();
  std::vector<float> planes(static_cast<size_t>(dim * h));
  for (int64_t j = 0; j < dim; ++j) {
    for (int p = 0; p < h; ++p) {
      planes[static_cast<size_t>(j * h + p)] =
          family.hyperplanes_t()[static_cast<size_t>(
              j * family.plane_stride() + p)];
    }
  }
  std::vector<float> compact(static_cast<size_t>(num_rows * dim));
  for (int64_t i = 0; i < num_rows; ++i) {
    std::memcpy(compact.data() + i * dim, data + i * row_stride,
                sizeof(float) * static_cast<size_t>(dim));
  }
  std::vector<float> projections(static_cast<size_t>(num_rows * h));
  Gemm(compact.data(), planes.data(), projections.data(), num_rows, dim, h);
  out->assign(static_cast<size_t>(num_rows), LshSignature{});
  for (int64_t i = 0; i < num_rows; ++i) {
    for (int p = 0; p < h; ++p) {
      if (projections[static_cast<size_t>(i * h + p)] > 0.0f) {
        (*out)[static_cast<size_t>(i)].SetBit(p);
      }
    }
  }
}

/// \brief Clusters the rows of `x` (num_rows x k, row-major) per block, in
/// consecutive scope groups of `rows_per_group` rows.
inline ReuseClustering ClusterSubVectors(const BlockLshFamilies& families,
                                         const float* x, int64_t num_rows,
                                         int64_t rows_per_group) {
  ADR_CHECK_GT(rows_per_group, 0);
  ADR_CHECK_EQ(num_rows % rows_per_group, 0);
  const int64_t k = families.k();
  ReuseClustering result;
  result.num_rows = num_rows;
  result.num_cols = k;
  result.blocks.resize(static_cast<size_t>(families.num_blocks()));
  for (int64_t b = 0; b < families.num_blocks(); ++b) {
    SubMatrixClustering& block = result.blocks[static_cast<size_t>(b)];
    block.col_offset = families.block_offset(b);
    block.length = families.block_length(b);
    Clustering& merged = block.clustering;
    for (int64_t start = 0; start < num_rows; start += rows_per_group) {
      std::vector<LshSignature> sigs;
      ReferenceHashRows(families.family(b), x + start * k + block.col_offset,
                        rows_per_group, k, &sigs);
      std::vector<LshSignature> group_sigs;
      const Clustering group = ClusterBySignature(sigs, &group_sigs);
      const int32_t id_offset =
          static_cast<int32_t>(merged.cluster_sizes.size());
      for (const int32_t id : group.assignment) {
        merged.assignment.push_back(id_offset + id);
      }
      merged.cluster_sizes.insert(merged.cluster_sizes.end(),
                                  group.cluster_sizes.begin(),
                                  group.cluster_sizes.end());
      block.signatures.insert(block.signatures.end(), group_sigs.begin(),
                              group_sigs.end());
    }
    block.centroids = ComputeCentroids(x + block.col_offset, num_rows,
                                       block.length, k, merged);
    BuildMemberLists(&merged);
    block.reused_from_cache.assign(
        static_cast<size_t>(merged.num_clusters()), false);
  }
  return result;
}

struct ReferenceForwardResult {
  Tensor y;  ///< [N, M]
  /// Centroids hold the cached representative of every hit cluster, and
  /// reused_from_cache marks the hits.
  ReuseClustering clustering;
  int64_t clusters_total = 0;
  int64_t clusters_reused = 0;
};

/// \brief y = x * W (+ bias) over ClusterSubVectors' centroids, through
/// `cache` when non-null.
inline ReferenceForwardResult ReferenceForward(
    const BlockLshFamilies& families, const float* x, int64_t num_rows,
    const Tensor& weight, const Tensor* bias, int64_t rows_per_group,
    ReferenceClusterCache* cache) {
  const int64_t m = weight.shape()[1];
  const size_t row_bytes = sizeof(float) * static_cast<size_t>(m);
  ReferenceForwardResult result;
  result.clustering = ClusterSubVectors(families, x, num_rows, rows_per_group);
  result.y = Tensor(Shape({num_rows, m}));  // zero-filled
  float* y = result.y.data();

  for (size_t bi = 0; bi < result.clustering.blocks.size(); ++bi) {
    SubMatrixClustering& block = result.clustering.blocks[bi];
    const int64_t num_clusters = block.clustering.num_clusters();
    const int64_t length = block.length;
    float* centroids = block.centroids.data();
    const size_t rep_bytes = sizeof(float) * static_cast<size_t>(length);
    result.clusters_total += num_clusters;

    std::vector<float> yc(static_cast<size_t>(num_clusters * m));
    std::vector<int64_t> misses;
    for (int64_t c = 0; c < num_clusters; ++c) {
      const ReferenceClusterCache::Entry* entry =
          cache == nullptr
              ? nullptr
              : cache->Find(static_cast<int64_t>(bi), block.signatures[c]);
      if (entry == nullptr) {
        misses.push_back(c);
        continue;
      }
      std::memcpy(yc.data() + c * m, entry->output.data(), row_bytes);
      std::memcpy(centroids + c * length, entry->representative.data(),
                  rep_bytes);
      block.reused_from_cache[static_cast<size_t>(c)] = true;
      ++result.clusters_reused;
    }

    const int64_t num_miss = static_cast<int64_t>(misses.size());
    std::vector<float> compact(static_cast<size_t>(num_miss * length));
    std::vector<float> compact_y(static_cast<size_t>(num_miss * m));
    for (int64_t i = 0; i < num_miss; ++i) {
      std::memcpy(compact.data() + i * length, centroids + misses[i] * length,
                  rep_bytes);
    }
    if (num_miss > 0) {
      Gemm(compact.data(), weight.data() + block.col_offset * m,
           compact_y.data(), num_miss, length, m);
    }
    std::vector<LshSignature> insert_sigs;
    std::vector<ReferenceClusterCache::Entry> inserts;
    for (int64_t i = 0; i < num_miss; ++i) {
      const int64_t c = misses[i];
      const float* out = compact_y.data() + i * m;
      std::memcpy(yc.data() + c * m, out, row_bytes);
      insert_sigs.push_back(block.signatures[static_cast<size_t>(c)]);
      inserts.push_back({std::vector<float>(centroids + c * length,
                                            centroids + (c + 1) * length),
                         std::vector<float>(out, out + m)});
    }
    if (cache != nullptr && num_miss > 0) {
      cache->InsertBatch(static_cast<int64_t>(bi), insert_sigs,
                         std::move(inserts));
    }

    for (int64_t i = 0; i < num_rows; ++i) {
      simd::Active().add(
          yc.data() + block.clustering.assignment[static_cast<size_t>(i)] * m,
          y + i * m, m);
    }
  }
  if (bias != nullptr) AddRowBias(bias->data(), y, num_rows, m);
  return result;
}

}  // namespace adr

#endif  // ADR_TESTS_CLUSTERED_FORWARD_REFERENCE_H_
