// Sub-vector clustering: splits the unfolded input matrix x (N x K)
// column-wise into sub-matrices of width L and LSH-clusters the rows of
// each independently (paper Fig. 3). The result is the shared artifact of
// forward and backward reuse. The bitwise reference clusterer the tests
// check this one against lives in tests/clustered_forward_reference.h.

#ifndef ADR_CORE_SUBVECTOR_CLUSTERING_H_
#define ADR_CORE_SUBVECTOR_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "clustering/clustering.h"
#include "clustering/lsh.h"
#include "core/reuse_config.h"
#include "tensor/tensor.h"
#include "util/result.h"

namespace adr {

/// \brief Clustering of one column block x^(I) of the unfolded matrix.
struct SubMatrixClustering {
  int64_t col_offset = 0;  ///< first column of this block in x
  int64_t length = 0;      ///< L_I (last block may be shorter)
  Clustering clustering;
  /// LSH signature per cluster (the cross-batch cluster ID).
  std::vector<LshSignature> signatures;
  /// Centroid matrix x_c^(I), |C_I| x L_I. For clusters reused from the
  /// cross-batch cache this row holds the cached representative.
  Tensor centroids;
  /// reused_from_cache[c] is true when cluster c's output came from the
  /// cluster-reuse cache (Algorithm 1) rather than a fresh GEMM.
  std::vector<bool> reused_from_cache;
};

/// \brief Clustering of all column blocks of one unfolded matrix.
struct ReuseClustering {
  std::vector<SubMatrixClustering> blocks;
  int64_t num_rows = 0;  ///< N
  int64_t num_cols = 0;  ///< K

  /// Average remaining ratio r_c across blocks (paper Section III-B).
  double AverageRemainingRatio() const;
  /// Total clusters across blocks.
  int64_t TotalClusters() const;
};

/// \brief Immutable family of LSH hyperplanes for every column block of a
/// layer, regenerated only when (K, L, H, seed) changes.
class BlockLshFamilies {
 public:
  BlockLshFamilies() = default;

  /// \brief Builds one LshFamily per block for width-K rows split at
  /// length L. Each block gets an independent family (seed offset by the
  /// block index).
  static Result<BlockLshFamilies> Create(int64_t k, int64_t sub_vector_length,
                                         int num_hashes, uint64_t seed);

  int64_t num_blocks() const { return static_cast<int64_t>(families_.size()); }
  const LshFamily& family(int64_t block) const {
    return families_[static_cast<size_t>(block)];
  }
  int64_t block_offset(int64_t block) const {
    return offsets_[static_cast<size_t>(block)];
  }
  int64_t block_length(int64_t block) const {
    return lengths_[static_cast<size_t>(block)];
  }
  int64_t k() const { return k_; }

 private:
  int64_t k_ = 0;
  std::vector<LshFamily> families_;
  std::vector<int64_t> offsets_;
  std::vector<int64_t> lengths_;
};

/// \brief The LSH clusterer of every forward pass, fed consecutive row
/// tiles of the unfolded matrix x (N x K).
///
/// Each tile's rows are hashed for all blocks in one pass over row chunks
/// (LshFamily::HashRowsInto per block and chunk) and then grouped per
/// block in first-seen order. `rows_per_group` sets the clustering
/// scope: rows cluster in consecutive groups of that size and never share
/// a cluster across groups (num_rows for single-batch scope, N_img for
/// single-input scope). Tiles need not align with group boundaries.
/// Centroids are the means of the raw (unnormalized) sub-vectors:
/// signatures are invariant to positive scaling, so the angular metric
/// needs no explicit normalization. The result does not depend on how
/// rows are tiled:
///   - each row's signature is independent of the other rows in its tile;
///   - ids are assigned in ascending row order, with the table reset at
///     every rows_per_group boundary;
///   - centroid sums accumulate from zero in ascending row order (one
///     scatter_add call per tile and block) and are scaled once per
///     cluster, in ascending cluster order, at Finish.
/// Each block's signature table is sized by the group's cluster count,
/// not by rows_per_group, so tables stay small enough to share L2.
/// Finish also records each block's member lists (BuildMemberLists), the
/// per-cluster row index the reuse backward sums and folds through.
///
/// All buffers persist across Begin/Finish cycles; pair Finish with a
/// later Recycle() of the returned ReuseClustering so steady-state
/// training at fixed shapes performs zero heap allocations here.
class StreamingSubVectorClusterer {
 public:
  /// \brief Starts a clustering of `num_rows` width-k rows in groups of
  /// `rows_per_group`. `families` must outlive the cycle.
  void Begin(const BlockLshFamilies* families, int64_t num_rows,
             int64_t rows_per_group);

  /// \brief Consumes rows [row_begin, row_begin + tile_rows); tiles must
  /// arrive in order and cover [0, num_rows) exactly. `tile` is
  /// tile_rows x k row-major.
  void ConsumeTile(const float* tile, int64_t row_begin, int64_t tile_rows);

  /// \brief Finalizes centroids and returns the clustering; the clusterer
  /// keeps its table capacity for the next Begin.
  ReuseClustering Finish();

  /// \brief Donates a no-longer-needed clustering (typically last step's)
  /// so its buffer capacity is reused by the next cycle.
  void Recycle(ReuseClustering&& old);

 private:
  // One signature-table slot. A probe reads the signature and the id from
  // one slot; id < 0 marks an empty slot.
  struct Slot {
    LshSignature sig;
    int32_t id = -1;
  };

  struct BlockState {
    // Open-addressing table of the current group's signatures; slot ids
    // are global (running) cluster ids. It doubles, rehashing the group's
    // clusters, before it would pass load 1/2, so it follows the group's
    // cluster count; its capacity persists across groups and cycles.
    std::vector<Slot> table;
    int32_t group_first = 0;  // id of the current group's first cluster
    // Growing per-cluster state, moved into the result at Finish.
    // centroids holds |C| x length running sums, zero-filled in doubling
    // steps ahead of |C| and trimmed to |C| x length at Finish.
    std::vector<float> centroids;
    std::vector<int64_t> sizes;
    std::vector<LshSignature> sigs;
    std::vector<int32_t> assignment;
    // Recycled member-list capacity, refilled at Finish.
    std::vector<int64_t> member_start;
    std::vector<int32_t> members;
    // Recycled reused_from_cache capacity (see Recycle).
    std::vector<bool> reused_pool;
    // Per-tile signature buffer.
    std::vector<LshSignature> tile_sigs;
  };

  // Adds `sig`, which the table lacks, as block `bs`'s next cluster at
  // the empty `slot` its probe ended on (or in the grown table) and
  // returns its id.
  int32_t AddCluster(BlockState* bs, const LshSignature& sig, size_t slot);
  // Groups one block's rows of the current tile (`x` is the block's first
  // column of the tile) and adds them to their clusters' centroid sums.
  void GroupTile(BlockState* bs, const float* x, int64_t row_begin,
                 int64_t tile_rows, int64_t length);

  const BlockLshFamilies* families_ = nullptr;
  int64_t num_rows_ = 0;
  int64_t rows_per_group_ = 0;
  int64_t next_row_ = 0;
  std::vector<BlockState> blocks_;
};

}  // namespace adr

#endif  // ADR_CORE_SUBVECTOR_CLUSTERING_H_
