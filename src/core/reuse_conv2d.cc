#include "core/reuse_conv2d.h"

#include "core/complexity_model.h"
#include "core/reuse_backward.h"
#include "util/check.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

ReuseConv2d::ReuseConv2d(std::string name, const Conv2dConfig& config,
                         const ReuseConfig& reuse, Rng* rng)
    : Conv2d(std::move(name), config, rng), reuse_(reuse) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string prefix = "reuse/" + this->name() + "/";
  const auto counter = [&](const char* series) {
    return registry.counter(prefix + series);
  };
  const auto gauge = [&](const char* series) {
    return registry.gauge(prefix + series);
  };
  const auto histogram = [&](const char* series) {
    return registry.histogram(prefix + series);
  };
  metrics_ = {counter("forward_calls"),
              gauge("enabled"),
              gauge("r_c"),
              gauge("reuse_rate"),
              gauge("clusters"),
              counter("clusters_reused"),
              histogram("hash_seconds"),
              histogram("gemm_seconds"),
              histogram("backward_seconds"),
              gauge("forward_cost_predicted"),
              gauge("forward_cost_measured"),
              gauge("workspace_bytes"),
              counter("allocations_per_step"),
              gauge("cache_entries"),
              gauge("cache_resident_bytes"),
              gauge("cache_occupancy"),
              counter("cache_hits"),
              counter("cache_misses"),
              counter("cache_evictions"),
              histogram("cache_probe_length")};

  const int64_t k = unfolded_cols();
  ADR_CHECK(reuse_.Validate(k).ok()) << reuse_.Validate(k).ToString();
  RebuildFamilies();
}

void ReuseConv2d::RebuildFamilies() {
  const int64_t k = unfolded_cols();
  families_ = *BlockLshFamilies::Create(k, reuse_.EffectiveLength(k),
                                        reuse_.num_hashes, reuse_.seed);
  if (reuse_.ClusterReuseEnabled()) {
    cache_ = std::make_unique<ClusterReuseCache>();
    cache_->set_max_entries(cache_max_entries_);
    cache_->set_max_bytes(cache_max_bytes_);
  } else {
    cache_.reset();
  }
  // A fresh cache starts all counters at zero, so delta publishing must
  // restart from zero too.
  published_cache_ = ClusterReuseCache::Stats{};
}

void ReuseConv2d::SetCacheBudgets(int64_t max_entries, int64_t max_bytes) {
  cache_max_entries_ = max_entries;
  cache_max_bytes_ = max_bytes;
  if (cache_ != nullptr) {
    cache_->set_max_entries(max_entries);
    cache_->set_max_bytes(max_bytes);
  }
}

Status ReuseConv2d::SetReuseConfig(const ReuseConfig& reuse) {
  const int64_t k = unfolded_cols();
  ADR_RETURN_NOT_OK(reuse.Validate(k));
  const bool families_changed =
      reuse.EffectiveLength(k) != reuse_.EffectiveLength(k) ||
      reuse.num_hashes != reuse_.num_hashes || reuse.seed != reuse_.seed;
  const bool cr_changed =
      reuse.ClusterReuseEnabled() != reuse_.ClusterReuseEnabled();
  reuse_ = reuse;
  if (families_changed || cr_changed) {
    RebuildFamilies();
  }
  return Status::OK();
}

Tensor ReuseConv2d::Forward(const Tensor& input, bool training) {
  ADR_TRACE_SPAN("ReuseConv2d::Forward");
  // Donate last step's clustering buffers before this step builds new
  // ones — at fixed shapes the capacity round-trips and no allocation
  // happens.
  clusterer_.Recycle(std::move(cached_clustering_));
  cached_clustering_ = ReuseClustering{};
  const int64_t batch = input.shape()[0];

  ReuseLayerStats call;
  Tensor out;
  if (!reuse_.enabled) {
    // Dense path: Conv2d's. Every row is its own cluster.
    out = Conv2d::Forward(input, training);
    call.forward_calls = 1;
    call.avg_remaining_ratio = 1.0;
    call.macs_executed = ForwardMacs(batch);
    call.macs_baseline = call.macs_executed;
  } else {
    const ConvGeometry geo = Geometry(batch);
    const int64_t m = config().out_channels;
    // One arena epoch spans Forward and the matching Backward; everything
    // handed out since the previous Reset() is invalidated here.
    WorkspaceArena* arena = mutable_workspace();
    arena->Reset();
    // The exact backward reads Conv2d's unfolded input; the clustered
    // forward unfolds tile by tile inside ClusteredForward regardless.
    KeepUnfoldedInput(input, training && exact_backward_);
    float* y = arena->AllocFloats(geo.unfolded_rows() * m);
    const int64_t rows_per_group =
        reuse_.scope == ClusterScope::kSingleInput ? geo.rows_per_image()
                                                   : geo.unfolded_rows();
    ReuseClustering clustering;
    ClusteredForward(families_, geo, input.data(), weight(), &bias(),
                     rows_per_group, cache_.get(), arena, &clusterer_, y,
                     &clustering, &call);
    if (training) {
      cached_clustering_ = std::move(clustering);
    } else {
      clusterer_.Recycle(std::move(clustering));
    }
    // ClusteredForward added the bias.
    out = Tensor(Shape({batch, m, geo.out_height(), geo.out_width()}));
    RowsToNchw(y, /*bias=*/nullptr, batch, m, geo.out_height(),
               geo.out_width(), out.data());
  }
  stats_.Add(call);
  Publish(call);
  return out;
}

void ReuseConv2d::Publish(const ReuseLayerStats& call) {
  if (call.forward_calls > 0) {
    metrics_.forward_calls->Increment(call.forward_calls);
    metrics_.enabled->Set(reuse_.enabled ? 1.0 : 0.0);
    metrics_.r_c->Set(call.avg_remaining_ratio);
    metrics_.reuse_rate->Set(call.last_batch_reuse_rate);
    metrics_.clusters->Set(static_cast<double>(call.clusters_total));
    metrics_.clusters_reused->Increment(call.clusters_reused);
    if (reuse_.enabled) {
      metrics_.hash_seconds->Record(call.hash_seconds);
      metrics_.gemm_seconds->Record(call.gemm_seconds);
    }

    // Predicted (Eq. 5, or Eq. 6 under cluster reuse; 1 when dense) vs
    // measured relative forward cost, both against the dense N*K*M
    // baseline of this batch.
    ComplexityParams params;
    params.k = unfolded_cols();
    params.m = config().out_channels;
    params.l = reuse_.EffectiveLength(params.k);
    params.h = reuse_.num_hashes;
    params.rc = call.avg_remaining_ratio;
    params.reuse_rate = call.last_batch_reuse_rate;
    const double predicted = !reuse_.enabled ? 1.0
                             : reuse_.ClusterReuseEnabled()
                                 ? ForwardRelativeCostClusterReuse(params)
                                 : ForwardRelativeCost(params);
    metrics_.forward_cost_predicted->Set(predicted);
    metrics_.forward_cost_measured->Set(
        call.macs_baseline == 0.0 ? 0.0
                                  : call.macs_executed / call.macs_baseline);

    if (cache_ != nullptr) {
      const ClusterReuseCache::Stats cache = cache_->GetStats();
      metrics_.cache_entries->Set(static_cast<double>(cache.entries));
      metrics_.cache_resident_bytes->Set(
          static_cast<double>(cache.resident_bytes));
      metrics_.cache_occupancy->Set(
          cache.slots == 0 ? 0.0
                           : static_cast<double>(cache.entries) /
                                 static_cast<double>(cache.slots));
      // The cache's counters are cumulative; the registry counters
      // advance by the delta since the last publish (same pattern as
      // alloc_slabs).
      metrics_.cache_hits->Increment(cache.hits - published_cache_.hits);
      metrics_.cache_misses->Increment(
          (cache.lookups - cache.hits) -
          (published_cache_.lookups - published_cache_.hits));
      metrics_.cache_evictions->Increment(cache.evictions -
                                          published_cache_.evictions);
      for (int b = 0; b < ClusterReuseCache::kProbeBuckets; ++b) {
        const size_t i = static_cast<size_t>(b);
        metrics_.cache_probe_length->RecordN(
            static_cast<double>(b + 1),
            cache.probe_counts[i] - published_cache_.probe_counts[i]);
      }
      published_cache_ = cache;
    }
  } else {
    metrics_.backward_seconds->Record(call.backward_seconds);
  }

  const WorkspaceArena& arena = workspace();
  metrics_.workspace_bytes->Set(static_cast<double>(arena.reserved_bytes()));
  // Hot-path slab allocations since the last publish; 0 at every publish
  // once the arena plan is warm — the counter's total therefore converges
  // after the first step at fixed shapes.
  metrics_.allocations_per_step->Increment(arena.alloc_slabs() -
                                           published_alloc_slabs_);
  published_alloc_slabs_ = arena.alloc_slabs();
}

Tensor ReuseConv2d::Backward(const Tensor& grad_output) {
  ADR_TRACE_SPAN("ReuseConv2d::Backward");
  const int64_t batch = grad_output.shape()[0];
  ReuseLayerStats call;
  Tensor grad_input;
  if (exact_backward_ || !reuse_.enabled) {
    // Ablation path: Conv2d's exact gradients from its unfolded input.
    Timer timer;
    grad_input = Conv2d::Backward(grad_output);
    call.backward_seconds = timer.ElapsedSeconds();
    call.macs_executed = 2.0 * ForwardMacs(batch);
    call.macs_baseline = call.macs_executed;
  } else {
    const ConvGeometry geo = Geometry(batch);
    const int64_t n = geo.unfolded_rows();
    const int64_t m = config().out_channels;
    ADR_CHECK_EQ(cached_clustering_.num_rows, n)
        << "Backward requires a preceding training-mode Forward";
    ADR_CHECK(grad_output.shape() ==
              Shape({batch, m, geo.out_height(), geo.out_width()}));
    WorkspaceArena* arena = mutable_workspace();
    float* dy = arena->AllocFloats(n * m);
    NchwToRows(grad_output, dy);
    grad_input = Tensor(Shape({batch, config().in_channels,
                               config().in_height, config().in_width}));
    ReuseBackwardInto(cached_clustering_, weight(), dy, geo, arena,
                      grad_weight().data(), grad_bias().data(),
                      grad_input.data(), &call);
  }
  stats_.Add(call);
  Publish(call);
  return grad_input;
}

void ReuseConv2d::ClearCache() {
  if (cache_ != nullptr) cache_->Clear();
  // The cleared cache counts from zero again; so must the deltas.
  published_cache_ = ClusterReuseCache::Stats{};
}

}  // namespace adr
