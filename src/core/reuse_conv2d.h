// ReuseConv2d: a Conv2d that runs adaptive deep reuse — LSH-clustered
// forward (Section III) and clustering-reusing backward (Section IV). With
// reuse off it runs Conv2d's passes, and with the exact backward Conv2d's
// backward. The ReuseConfig can be changed between batches, which is how
// the adaptive strategies of Section V drive the layer.

#ifndef ADR_CORE_REUSE_CONV2D_H_
#define ADR_CORE_REUSE_CONV2D_H_

#include <memory>
#include <string>
#include <vector>

#include "core/clustered_matmul.h"
#include "core/reuse_config.h"
#include "core/subvector_clustering.h"
#include "nn/conv2d.h"
#include "nn/reuse_stats.h"  // ReuseLayerStats lives with the Layer API
#include "util/rng.h"
#include "util/status.h"

namespace adr {

class Counter;
class Gauge;
class Histogram;

/// \brief Convolution layer accelerated by adaptive deep reuse. Weights,
/// gradients, geometry and the workspace arena are Conv2d's.
class ReuseConv2d : public Conv2d {
 public:
  /// \brief Fresh layer whose Conv2d base is built from the same
  /// (name, config, rng), so its weights equal a Conv2d's given the same
  /// `rng` state.
  ReuseConv2d(std::string name, const Conv2dConfig& config,
              const ReuseConfig& reuse, Rng* rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// \brief Applies a new clustering configuration; regenerates the LSH
  /// families and clears the cluster-reuse cache if (L, H, seed) changed.
  /// Returns InvalidArgument for out-of-range parameters.
  Status SetReuseConfig(const ReuseConfig& reuse);
  const ReuseConfig& reuse_config() const { return reuse_; }

  /// \brief When true, the backward pass is exact (uses the cached
  /// unfolded input instead of the forward clustering) — an ablation knob;
  /// the paper's method keeps this false.
  void set_exact_backward(bool exact) { exact_backward_ = exact; }
  bool exact_backward() const { return exact_backward_; }

  int64_t unfolded_cols() const {
    return config().in_channels * config().kernel * config().kernel;
  }

  // Layer reuse-telemetry hooks (Network::CollectReuseStats).
  const ReuseLayerStats* GetReuseStats() const override { return &stats_; }
  void ResetReuseStats() override { stats_ = ReuseLayerStats{}; }

  /// \brief Cluster-reuse cache (present whenever CR is enabled); its
  /// GetStats() is the one source of cache telemetry.
  const ClusterReuseCache* cache() const { return cache_.get(); }
  /// \brief Drops every cache entry and counter; the published
  /// reuse/<name>/cache_* counters keep counting up from where they were.
  void ClearCache();

  /// \brief Budgets for the cluster-reuse cache (0 = unbounded): at most
  /// `max_entries` resident clusters and `max_bytes` resident payload
  /// bytes, enforced by second-chance eviction. Sticky across
  /// SetReuseConfig rebuilds of the cache.
  void SetCacheBudgets(int64_t max_entries, int64_t max_bytes);

 private:
  /// Handles of the layer's series under "reuse/<name>/" in
  /// MetricsRegistry::Global(), resolved once by the constructor (the
  /// global registry is never cleared, so they stay valid).
  struct MetricHandles {
    Counter* forward_calls;
    Gauge* enabled;
    Gauge* r_c;
    Gauge* reuse_rate;
    Gauge* clusters;
    Counter* clusters_reused;
    Histogram* hash_seconds;
    Histogram* gemm_seconds;
    Histogram* backward_seconds;
    Gauge* forward_cost_predicted;
    Gauge* forward_cost_measured;
    Gauge* workspace_bytes;
    Counter* allocations_per_step;
    Gauge* cache_entries;
    Gauge* cache_resident_bytes;
    Gauge* cache_occupancy;
    Counter* cache_hits;
    Counter* cache_misses;
    Counter* cache_evictions;
    Histogram* cache_probe_length;
  };

  MetricHandles metrics_ = {};
  ReuseConfig reuse_;

  BlockLshFamilies families_;
  std::unique_ptr<ClusterReuseCache> cache_;
  bool exact_backward_ = false;

  /// Persistent clusterer of every LSH forward (its tables and the
  /// clustering buffers recycled through it survive across steps).
  StreamingSubVectorClusterer clusterer_;
  /// alloc_slabs() value already published, for per-step deltas.
  int64_t published_alloc_slabs_ = 0;

  /// Cache budgets, reapplied whenever RebuildFamilies recreates cache_.
  int64_t cache_max_entries_ = 0;
  int64_t cache_max_bytes_ = 0;
  /// Cache counters already published, for per-step deltas.
  ClusterReuseCache::Stats published_cache_;

  /// The training Forward's clustering, reused by Backward.
  ReuseClustering cached_clustering_;

  ReuseLayerStats stats_;

  void RebuildFamilies();

  /// Publishes one forward or backward call's record through metrics_:
  /// per forward, r_c, reuse rate R, cluster counts, phase
  /// wall-times, predicted (Eq. 5/6) vs measured relative forward cost and
  /// the cache's occupancy plus counter deltas; per backward, its
  /// wall-time; after both, workspace_bytes (arena capacity) and
  /// allocations_per_step (hot-path slab allocations since the last
  /// publish, zero once the arena plan is warm).
  void Publish(const ReuseLayerStats& call);
};

}  // namespace adr

#endif  // ADR_CORE_REUSE_CONV2D_H_
