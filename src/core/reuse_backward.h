// Backward-pass reuse (paper Section IV): the forward clustering is reused
// to compute both the weight gradient (Eqs. 7-12) and the input delta
// (Eqs. 13-20) without re-clustering.

#ifndef ADR_CORE_REUSE_BACKWARD_H_
#define ADR_CORE_REUSE_BACKWARD_H_

#include <cstdint>

#include "core/subvector_clustering.h"
#include "nn/reuse_stats.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"

namespace adr {

/// \brief Computes the paper's approximate backward pass.
///
/// Per column block I:
///   dy_{c,s}  [|C_I| x M]: row-sums of dy grouped by cluster (Eq. 8);
///   dW_I      = x_{c,I}^T * dy_{c,I,s}                        (Eq. 10);
///   dy_{c,sa} = dy_{c,s} with each row divided by its cluster size;
///   dx_{c,I}  = dy_{c,I,sa} * W_I^T                           (Eq. 18),
/// and the centroid delta reaches every member row (Eq. 13).
/// grad_bias is exact (column sums of dy), matching the baseline layer.
///
/// Each cluster's dy sum starts at zero and adds its member rows
/// (Clustering::members) in ascending row order, so the bits do not
/// depend on the thread count. tests/reuse_backward_reference.h writes
/// the same order out serially.
///
/// This is the reuse backward of a convolution with geometry `geo`, into
/// caller-owned buffers; a caller holding the N x K matrix passes
/// MatrixGeometry(N, K), and grad_input is then the N x K unfolded
/// delta. `dy` is N x M; `grad_weight` ([K, M]),
/// `grad_bias` ([M]) and `grad_input` ([Nb, Ic, Ih, Iw]) are fully
/// overwritten. Scratch (the cluster sums, every block's dx_c and one
/// L2-sized row tile per fold group) bumps from `arena`, or from the heap
/// when it is null.
///
/// The fold is Col2ImTiles, as in ConvBackwardInput: each row tile is
/// filled with dx_c[cluster(row, I)] for every block I. No N x K matrix
/// is built, and grad_input is bitwise what scattering dx_c to an
/// N x K matrix and calling Col2Im would give. `stats` is overwritten with
/// this call's record.
void ReuseBackwardInto(const ReuseClustering& clustering,
                       const Tensor& weight, const float* dy,
                       const ConvGeometry& geo, WorkspaceArena* arena,
                       float* grad_weight, float* grad_bias,
                       float* grad_input, ReuseLayerStats* stats);

}  // namespace adr

#endif  // ADR_CORE_REUSE_BACKWARD_H_
