#include "core/reuse_conv2d.h"

#include <cmath>

#include "core/complexity_model.h"
#include "core/reuse_backward.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

ReuseConv2d::ReuseConv2d(std::string name, const Conv2dConfig& config,
                         const ReuseConfig& reuse, Rng* rng)
    : name_(std::move(name)), config_(config), reuse_(reuse) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string prefix = "reuse/" + name_ + "/";
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
              histogram("im2col_seconds"),
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
  const int64_t m = config_.out_channels;
  ADR_CHECK_GT(k, 0);
  ADR_CHECK_GT(m, 0);
  ADR_CHECK(reuse_.Validate(k).ok()) << reuse_.Validate(k).ToString();
  const float stddev = std::sqrt(2.0f / static_cast<float>(k));
  weight_ = Tensor::RandomGaussian(Shape({k, m}), rng, 0.0f, stddev);
  bias_ = Tensor(Shape({m}));
  grad_weight_ = Tensor(Shape({k, m}));
  grad_bias_ = Tensor(Shape({m}));
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

ConvGeometry ReuseConv2d::Geometry(int64_t batch) const {
  ConvGeometry geo;
  geo.batch = batch;
  geo.in_channels = config_.in_channels;
  geo.in_height = config_.in_height;
  geo.in_width = config_.in_width;
  geo.kernel_h = config_.kernel;
  geo.kernel_w = config_.kernel;
  geo.stride = config_.stride;
  geo.pad = config_.pad;
  return geo;
}

Tensor ReuseConv2d::Forward(const Tensor& input, bool training) {
  ADR_TRACE_SPAN("ReuseConv2d::Forward");
  const int64_t batch = input.shape()[0];
  const ConvGeometry geo = Geometry(batch);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = config_.out_channels;

  // One arena epoch spans Forward and the matching Backward; everything
  // handed out since the previous Reset() is invalidated here.
  arena_.Reset();
  cached_cols_data_ = nullptr;
  // Donate last step's clustering buffers before this step builds new
  // ones — at fixed shapes the capacity round-trips and no allocation
  // happens.
  clusterer_.Recycle(std::move(cached_clustering_));
  cached_clustering_ = ReuseClustering{};
  // Eval mode caches nothing: Backward requires a training Forward.
  cached_batch_ = training ? batch : 0;

  // The N x K unfolded input exists only where something reads it whole:
  // the dense GEMM and the exact backward (which keeps it, arena-owned,
  // for Backward). Every other forward unfolds tile by tile inside
  // ClusteredForward.
  float* cols = nullptr;
  if (!reuse_.enabled || (training && exact_backward_)) {
    cols = arena_.AllocFloats(n * k);
    ADR_TRACE_SPAN("im2col");
    Timer im2col_timer;
    Im2Col(geo, input.data(), cols);
    metrics_.im2col_seconds->Record(im2col_timer.ElapsedSeconds());
    if (training) cached_cols_data_ = cols;
  }
  float* y = arena_.AllocFloats(n * m);

  ReuseLayerStats call;
  if (!reuse_.enabled) {
    // Dense path: identical to Conv2d. Every row is its own cluster.
    Gemm(cols, weight_.data(), y, n, k, m);
    AddRowBias(bias_.data(), y, n, m);
    call.forward_calls = 1;
    call.avg_remaining_ratio = 1.0;
    call.macs_executed = static_cast<double>(n) * k * m;
    call.macs_baseline = call.macs_executed;
  } else {
    const int64_t rows_per_group =
        reuse_.scope == ClusterScope::kSingleInput ? geo.rows_per_image()
                                                   : n;
    const ForwardRows rows = cols != nullptr
                                 ? ForwardRows::Matrix(cols, n)
                                 : ForwardRows::Unfold(geo, input.data());
    ReuseClustering clustering;
    ClusteredForward(families_, rows, weight_, &bias_, rows_per_group,
                     cache_.get(), &arena_, &clusterer_, y, &clustering,
                     &call);
    if (training) {
      cached_clustering_ = std::move(clustering);
    } else {
      clusterer_.Recycle(std::move(clustering));
    }
  }
  stats_.Add(call);
  Publish(call);

  Tensor out(Shape({batch, m, geo.out_height(), geo.out_width()}));
  RowsToNchw(y, batch, m, geo.out_height(), geo.out_width(), out.data());
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
    params.m = config_.out_channels;
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

  metrics_.workspace_bytes->Set(static_cast<double>(arena_.reserved_bytes()));
  // Hot-path slab allocations since the last publish; 0 at every publish
  // once the arena plan is warm — the counter's total therefore converges
  // after the first step at fixed shapes.
  metrics_.allocations_per_step->Increment(arena_.alloc_slabs() -
                                           published_alloc_slabs_);
  published_alloc_slabs_ = arena_.alloc_slabs();
}

Tensor ReuseConv2d::Backward(const Tensor& grad_output) {
  ADR_TRACE_SPAN("ReuseConv2d::Backward");
  ADR_CHECK_GT(cached_batch_, 0)
      << "Backward requires a preceding training-mode Forward";
  const ConvGeometry geo = Geometry(cached_batch_);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = config_.out_channels;

  ADR_CHECK(grad_output.shape() == Shape({cached_batch_, m,
                                          geo.out_height(),
                                          geo.out_width()}));
  float* dy = arena_.AllocFloats(n * m);
  NchwToRows(grad_output, dy);
  Tensor grad_input(Shape({cached_batch_, config_.in_channels,
                           config_.in_height, config_.in_width}));

  ReuseLayerStats call;
  if (exact_backward_ || !reuse_.enabled) {
    // Ablation path: exact gradients from the cached unfolded input.
    Timer timer;
    ADR_CHECK(cached_cols_data_ != nullptr)
        << "exact_backward requires the unfolded input cached in Forward";
    GemmTransA(cached_cols_data_, dy, grad_weight_.data(), k, n, m);
    ColumnSumsInto(dy, n, m, grad_bias_.data());
    ConvBackwardInput(geo, dy, weight_.data(), m, &arena_,
                      grad_input.data());
    call.backward_seconds = timer.ElapsedSeconds();
    call.macs_executed = 2.0 * static_cast<double>(n) * k * m;
    call.macs_baseline = call.macs_executed;
  } else {
    ReuseBackwardInto(cached_clustering_, weight_, dy, geo, &arena_,
                      grad_weight_.data(), grad_bias_.data(),
                      grad_input.data(), &call);
  }
  stats_.Add(call);
  Publish(call);
  return grad_input;
}

double ReuseConv2d::ForwardMacs(int64_t batch) const {
  const ConvGeometry geo = Geometry(batch);
  return static_cast<double>(geo.unfolded_rows()) * geo.unfolded_cols() *
         config_.out_channels;
}

void ReuseConv2d::CopyWeightsFrom(const Conv2d& baseline) {
  ADR_CHECK(weight_.SameShape(baseline.weight()))
      << "weight shape mismatch copying into " << name_;
  weight_ = baseline.weight();
  bias_ = baseline.bias();
}

void ReuseConv2d::ClearCache() {
  if (cache_ != nullptr) cache_->Clear();
  // The cleared cache counts from zero again; so must the deltas.
  published_cache_ = ClusterReuseCache::Stats{};
}

}  // namespace adr
