#include "core/subvector_clustering.h"

#include <algorithm>
#include <string>
#include <utility>

#include "tensor/simd.h"
#include "util/check.h"
#include "util/parallel.h"

namespace adr {

double ReuseClustering::AverageRemainingRatio() const {
  if (blocks.empty() || num_rows == 0) return 0.0;
  double total = 0.0;
  for (const auto& block : blocks) {
    total += block.clustering.remaining_ratio();
  }
  return total / static_cast<double>(blocks.size());
}

int64_t ReuseClustering::TotalClusters() const {
  int64_t total = 0;
  for (const auto& block : blocks) total += block.clustering.num_clusters();
  return total;
}

Result<BlockLshFamilies> BlockLshFamilies::Create(int64_t k,
                                                  int64_t sub_vector_length,
                                                  int num_hashes,
                                                  uint64_t seed) {
  if (k <= 0) return Status::InvalidArgument("K must be > 0");
  const int64_t length = sub_vector_length <= 0 || sub_vector_length > k
                             ? k
                             : sub_vector_length;
  BlockLshFamilies out;
  out.k_ = k;
  for (int64_t offset = 0; offset < k; offset += length) {
    const int64_t block_len = std::min(length, k - offset);
    LshFamily family;
    const uint64_t block_seed =
        seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(offset + 1);
    ADR_RETURN_NOT_OK(
        LshFamily::Create(block_len, num_hashes, block_seed, &family));
    out.families_.push_back(std::move(family));
    out.offsets_.push_back(offset);
    out.lengths_.push_back(block_len);
  }
  return out;
}

namespace {

// Slots of a block's first table; it doubles from there.
constexpr size_t kMinTableSlots = 64;

}  // namespace

void StreamingSubVectorClusterer::Begin(const BlockLshFamilies* families,
                                        int64_t num_rows,
                                        int64_t rows_per_group) {
  ADR_CHECK(families != nullptr);
  ADR_CHECK_GT(num_rows, 0);
  ADR_CHECK_GT(rows_per_group, 0);
  ADR_CHECK_EQ(num_rows % rows_per_group, 0)
      << "rows_per_group must divide num_rows";
  families_ = families;
  num_rows_ = num_rows;
  rows_per_group_ = rows_per_group;
  next_row_ = 0;
  // Tables keep the capacity earlier cycles grew them to; ConsumeTile
  // empties them at every group boundary, row 0 included.
  blocks_.resize(static_cast<size_t>(families->num_blocks()));
  for (BlockState& bs : blocks_) {
    if (bs.table.empty()) bs.table.resize(kMinTableSlots);
    bs.centroids.clear();
    bs.sizes.clear();
    bs.sigs.clear();
    bs.assignment.resize(static_cast<size_t>(num_rows));
  }
}

int32_t StreamingSubVectorClusterer::AddCluster(BlockState* bs,
                                                const LshSignature& sig,
                                                size_t slot) {
  const int32_t id = static_cast<int32_t>(bs->sigs.size());
  if (2 * static_cast<size_t>(id - bs->group_first + 1) > bs->table.size()) {
    // Double and rehash the group's clusters (ids are first-seen order,
    // so the table's layout never shows in the result).
    bs->table.assign(2 * bs->table.size(), Slot{});
    const size_t mask = bs->table.size() - 1;
    for (int32_t c = bs->group_first; c < id; ++c) {
      const LshSignature& s = bs->sigs[static_cast<size_t>(c)];
      size_t free_slot = SignatureKey(s) & mask;
      while (bs->table[free_slot].id >= 0) free_slot = (free_slot + 1) & mask;
      bs->table[free_slot] = Slot{s, c};
    }
    slot = SignatureKey(sig) & mask;
    while (bs->table[slot].id >= 0) slot = (slot + 1) & mask;
  }
  bs->table[slot] = Slot{sig, id};
  bs->sigs.push_back(sig);
  bs->sizes.push_back(0);
  return id;
}

void StreamingSubVectorClusterer::GroupTile(BlockState* bs, const float* x,
                                            int64_t row_begin,
                                            int64_t tile_rows,
                                            int64_t length) {
  // Ids in ascending row order: ClusterBySignature's first-seen order,
  // with the table emptied at each group boundary.
  int64_t next_reset =
      (row_begin + rows_per_group_ - 1) / rows_per_group_ * rows_per_group_;
  const Slot* table = bs->table.data();
  size_t mask = bs->table.size() - 1;
  int32_t* assignment = bs->assignment.data() + row_begin;
  for (int64_t i = 0; i < tile_rows; ++i) {
    if (row_begin + i == next_reset) {
      std::fill(bs->table.begin(), bs->table.end(), Slot{});
      bs->group_first = static_cast<int32_t>(bs->sigs.size());
      next_reset += rows_per_group_;
    }
    const LshSignature& sig = bs->tile_sigs[static_cast<size_t>(i)];
    size_t slot = SignatureKey(sig) & mask;
    while (table[slot].id >= 0 &&
           ((table[slot].sig.words[0] ^ sig.words[0]) |
            (table[slot].sig.words[1] ^ sig.words[1])) != 0) {
      slot = (slot + 1) & mask;
    }
    int32_t id = table[slot].id;
    if (id < 0) {
      id = AddCluster(bs, sig, slot);
      table = bs->table.data();
      mask = bs->table.size() - 1;
    }
    assignment[i] = id;
    ++bs->sizes[static_cast<size_t>(id)];
  }

  // The rows' adds to their clusters' running sums, in row order: one
  // kernel call per tile, no indirect call per row.
  const size_t needed = bs->sigs.size() * static_cast<size_t>(length);
  if (needed > bs->centroids.size()) {
    // Zero-filled sums for the new clusters and the next ones, in
    // doubling steps (at least 64 clusters).
    bs->centroids.resize(
        std::max(needed, std::max(2 * bs->centroids.size(),
                                  static_cast<size_t>(64 * length))),
        0.0f);
  }
  simd::Active().scatter_add(x, families_->k(), assignment, tile_rows,
                             bs->centroids.data(), length);
}

void StreamingSubVectorClusterer::ConsumeTile(const float* tile,
                                              int64_t row_begin,
                                              int64_t tile_rows) {
  ADR_CHECK_EQ(row_begin, next_row_) << "tiles must arrive in row order";
  ADR_CHECK_GT(tile_rows, 0);
  ADR_CHECK_LE(row_begin + tile_rows, num_rows_);
  const int64_t k = families_->k();
  const int64_t num_blocks = families_->num_blocks();

  // Signatures of every block, one pass over row chunks: a chunk's rows
  // stay in cache while all blocks hash them, and each row owns its
  // signature slots, so the result is independent of the thread count.
  for (BlockState& bs : blocks_) {
    bs.tile_sigs.resize(static_cast<size_t>(tile_rows));
  }
  ParallelFor(tile_rows,
              GrainForCost(k * families_->family(0).plane_stride()),
              [&](int64_t begin, int64_t end) {
                for (int64_t b = 0; b < num_blocks; ++b) {
                  families_->family(b).HashRowsInto(
                      tile + begin * k + families_->block_offset(b),
                      end - begin, k,
                      blocks_[static_cast<size_t>(b)].tile_sigs.data() +
                          begin);
                }
              });

  // Grouping, serial per block in ascending global row order, so the
  // result is independent of the tiling.
  for (int64_t b = 0; b < num_blocks; ++b) {
    GroupTile(&blocks_[static_cast<size_t>(b)],
              tile + families_->block_offset(b), row_begin, tile_rows,
              families_->block_length(b));
  }
  next_row_ += tile_rows;
}

ReuseClustering StreamingSubVectorClusterer::Finish() {
  ADR_CHECK_EQ(next_row_, num_rows_) << "tiles did not cover all rows";
  const simd::Kernels& kernels = simd::Active();
  ReuseClustering result;
  result.num_rows = num_rows_;
  result.num_cols = families_->k();
  result.blocks.resize(blocks_.size());
  for (size_t b = 0; b < blocks_.size(); ++b) {
    BlockState& bs = blocks_[b];
    SubMatrixClustering& out = result.blocks[b];
    out.col_offset = families_->block_offset(static_cast<int64_t>(b));
    out.length = families_->block_length(static_cast<int64_t>(b));
    const int64_t num_clusters = static_cast<int64_t>(bs.sizes.size());
    bs.centroids.resize(static_cast<size_t>(num_clusters * out.length));
    float* c = bs.centroids.data();
    for (int64_t cl = 0; cl < num_clusters; ++cl) {
      const int64_t size = bs.sizes[static_cast<size_t>(cl)];
      ADR_CHECK_GT(size, 0) << "empty cluster " << cl;
      kernels.scale(1.0f / static_cast<float>(size), c + cl * out.length,
                    out.length);
    }
    out.centroids =
        Tensor(Shape({num_clusters, out.length}), std::move(bs.centroids));
    bs.centroids = std::vector<float>();
    out.clustering.cluster_sizes = std::move(bs.sizes);
    out.clustering.assignment = std::move(bs.assignment);
    out.clustering.member_start = std::move(bs.member_start);
    out.clustering.members = std::move(bs.members);
    BuildMemberLists(&out.clustering);
    out.signatures = std::move(bs.sigs);
    out.reused_from_cache = std::move(bs.reused_pool);
    out.reused_from_cache.assign(static_cast<size_t>(num_clusters), false);
  }
  return result;
}

void StreamingSubVectorClusterer::Recycle(ReuseClustering&& old) {
  if (blocks_.size() < old.blocks.size()) blocks_.resize(old.blocks.size());
  for (size_t b = 0; b < old.blocks.size(); ++b) {
    BlockState& bs = blocks_[b];
    SubMatrixClustering& ob = old.blocks[b];
    bs.centroids = std::move(ob.centroids).TakeData();
    bs.sizes = std::move(ob.clustering.cluster_sizes);
    bs.sigs = std::move(ob.signatures);
    bs.assignment = std::move(ob.clustering.assignment);
    bs.member_start = std::move(ob.clustering.member_start);
    bs.members = std::move(ob.clustering.members);
    bs.reused_pool = std::move(ob.reused_from_cache);
  }
}

}  // namespace adr
