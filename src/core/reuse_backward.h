// Backward-pass reuse (paper Section IV): the forward clustering is reused
// to compute both the weight gradient (Eqs. 7-12) and the input delta
// (Eqs. 13-20) without re-clustering.

#ifndef ADR_CORE_REUSE_BACKWARD_H_
#define ADR_CORE_REUSE_BACKWARD_H_

#include <cstdint>

#include "core/subvector_clustering.h"
#include "nn/reuse_stats.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"

namespace adr {

/// \brief Result of the reuse backward pass.
struct BackwardReuseResult {
  Tensor grad_weight;  ///< [K, M]
  Tensor grad_bias;    ///< [M]
  Tensor grad_x;       ///< [N, K] gradient w.r.t. the unfolded input
  /// This call's record: backward_seconds, and MACs against the
  /// 2 * N * K * M of the exact backward.
  ReuseLayerStats stats;
};

/// \brief Computes the paper's approximate backward pass.
///
/// Per column block I:
///   dy_{c,s}  [|C_I| x M]: row-sums of dy grouped by cluster (Eq. 8);
///   dW_I      = x_{c,I}^T * dy_{c,I,s}                        (Eq. 10);
///   dy_{c,sa} = dy_{c,s} with each row divided by its cluster size;
///   dx_{c,I}  = dy_{c,I,sa} * W_I^T                           (Eq. 18),
/// and the centroid delta is scattered to every member row (Eq. 13).
/// grad_bias is exact (column sums of dy), matching the baseline layer.
BackwardReuseResult ReuseBackward(const ReuseClustering& clustering,
                                  const Tensor& weight, const Tensor& dy);

/// \brief ReuseBackward into caller-owned buffers — the allocation-free
/// form the conv layers drive from persistent gradients and a workspace
/// arena. `dy` is N x M; `grad_weight` ([K, M]), `grad_bias` ([M]) and
/// `grad_x` ([N, K]) are fully overwritten; per-block scratch bumps from
/// `arena` (heap fallback when null). Bit-identical to ReuseBackward.
/// `stats` is overwritten with this call's record.
void ReuseBackwardInto(const ReuseClustering& clustering,
                       const Tensor& weight, const float* dy,
                       WorkspaceArena* arena, float* grad_weight,
                       float* grad_bias, float* grad_x,
                       ReuseLayerStats* stats);

}  // namespace adr

#endif  // ADR_CORE_REUSE_BACKWARD_H_
