// ReuseLayerStats: the one telemetry record of a reuse-capable layer. The
// forward and backward drivers fill one record per call; the layer folds
// each call into its cumulative record with Add() and exposes that through
// the Layer interface, so callers can read savings without knowing the
// concrete layer type (Network::CollectReuseStats).

#ifndef ADR_NN_REUSE_STATS_H_
#define ADR_NN_REUSE_STATS_H_

#include <cstdint>

namespace adr {

/// \brief Reuse telemetry: of one forward or backward call as a driver
/// fills it, or cumulative over calls (Add) until
/// Layer::ResetReuseStats().
struct ReuseLayerStats {
  int64_t forward_calls = 0;  ///< 1 for a forward call, 0 for a backward
  /// r_c (Eq. 5): of the batch in a forward call (1 for a dense one);
  /// cumulatively, the mean over forward calls.
  double avg_remaining_ratio = 0.0;
  double hash_seconds = 0.0;  ///< hashing + grouping + centroids
  double gemm_seconds = 0.0;  ///< cache + centroid GEMM + scatter + bias
  double backward_seconds = 0.0;
  double macs_executed = 0.0;  ///< hash, GEMM and scatter MACs actually done
  /// MACs the dense layer would execute: N*K*M per forward, 2*N*K*M per
  /// backward (N*K*M, dW alone, when the layer returns no input
  /// gradient; see Layer::needs_input_grad).
  double macs_baseline = 0.0;
  int64_t clusters_total = 0;   ///< clusters over all column blocks
  int64_t clusters_reused = 0;  ///< of those, served from the CR cache
  /// Cluster reuse rate R (Eq. 6) of the most recent forward batch (0 when
  /// no cache served it).
  double last_batch_reuse_rate = 0.0;

  /// \brief Folds one call's record into this cumulative one: sums, the
  /// r_c mean weighted by forward_calls, and the latest forward's R.
  void Add(const ReuseLayerStats& call) {
    const int64_t calls = forward_calls + call.forward_calls;
    if (call.forward_calls > 0) {
      avg_remaining_ratio =
          (avg_remaining_ratio * static_cast<double>(forward_calls) +
           call.avg_remaining_ratio * static_cast<double>(call.forward_calls)) /
          static_cast<double>(calls);
      last_batch_reuse_rate = call.last_batch_reuse_rate;
    }
    forward_calls = calls;
    hash_seconds += call.hash_seconds;
    gemm_seconds += call.gemm_seconds;
    backward_seconds += call.backward_seconds;
    macs_executed += call.macs_executed;
    macs_baseline += call.macs_baseline;
    clusters_total += call.clusters_total;
    clusters_reused += call.clusters_reused;
  }

  /// Fraction of baseline MACs avoided so far.
  double MacsSavedFraction() const {
    return macs_baseline == 0.0 ? 0.0 : 1.0 - macs_executed / macs_baseline;
  }
};

}  // namespace adr

#endif  // ADR_NN_REUSE_STATS_H_
