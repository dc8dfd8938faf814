#include "stepbench/step_bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "clustering/lsh.h"
#include "core/reuse_conv2d.h"
#include "core/subvector_clustering.h"
#include "data/dataloader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace adr::stepbench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Per-layer metrics always cover conv1..conv5 so every workload prints the
// same names; layers a network does not have report 0.
constexpr int kMaxConvLayers = 5;
// final_loss averages the last kLossWindow steps of each episode.
constexpr int64_t kLossWindow = 20;
// Timed steps of episode 0 checked bit for bit against adr::TrainStep.
constexpr int kFidelitySteps = 3;
// Replays of single kernels are repeated and the median kept.
constexpr int kReplayReps = 5;
// The learning check: held-out accuracy above this multiple of chance.
constexpr double kMinAccuracyOverChance = 1.5;

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 over (seed, tag): independent streams per purpose.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The Table IV training task (bench/table4_training_savings.cc): smooth
// blobs with mild structured noise, so LSH clusters align with
// class-relevant features as they do on real images.
SyntheticImageConfig Table4Task(int64_t side, int64_t num_samples,
                                uint64_t seed, int num_classes,
                                float structured_noise) {
  SyntheticImageConfig config =
      SyntheticImageConfig::CifarLike(num_samples, seed);
  config.num_classes = num_classes;
  config.height = side;
  config.width = side;
  config.structured_noise = structured_noise;
  config.white_noise = 0.02f;
  config.max_translation = static_cast<int>(std::min<int64_t>(side / 5, 8));
  config.blob_radius_fraction = 0.35f;
  return config;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

// One conv layer of either kind, seen through what both expose.
struct ConvLayer {
  size_t index = 0;  ///< position in the network
  std::string name;
  const Tensor* weight = nullptr;  ///< [K, M]
  const WorkspaceArena* workspace = nullptr;
  ReuseConv2d* reuse = nullptr;  ///< null for dense Conv2d
  ConvGeometry geometry;         ///< at the workload batch size
};

// Everything one training run owns. The datasets outlive the loader.
struct Trainee {
  std::unique_ptr<SyntheticImageDataset> train;
  Model model;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<DataLoader> loader;
  std::vector<Tensor*> params;
  std::vector<Tensor*> grads;
  std::vector<ConvLayer> convs;
  Batch batch;
  double build_ms = 0.0;  ///< BuildModel alone
};

Result<std::unique_ptr<Trainee>> BuildTrainee(const Workload& w) {
  auto t = std::make_unique<Trainee>();
  ADR_ASSIGN_OR_RETURN(SyntheticImageDataset train,
                       SyntheticImageDataset::Create(w.data));
  t->train = std::make_unique<SyntheticImageDataset>(std::move(train));
  const Clock::time_point build_start = Clock::now();
  ADR_ASSIGN_OR_RETURN(t->model, BuildModel(w.model, w.model_options));
  t->build_ms = MillisSince(build_start);
  t->optimizer = std::make_unique<Adam>(w.learning_rate);
  t->loader = std::make_unique<DataLoader>(
      t->train.get(), w.batch_size, /*shuffle=*/true,
      w.shuffle_seed);
  t->params = t->model.network.Parameters();
  t->grads = t->model.network.Gradients();
  Network& net = t->model.network;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    Layer* layer = net.layer(i);
    ConvLayer c;
    c.index = i;
    c.name = layer->name();
    if (auto* r = dynamic_cast<ReuseConv2d*>(layer)) {
      c.weight = &r->weight();
      c.workspace = &r->workspace();
      c.reuse = r;
      c.geometry = r->Geometry(w.batch_size);
    } else if (auto* d = dynamic_cast<Conv2d*>(layer)) {
      c.weight = &d->weight();
      c.workspace = &d->workspace();
      c.geometry = d->Geometry(w.batch_size);
    } else {
      continue;
    }
    t->convs.push_back(std::move(c));
  }
  if (t->convs.size() > static_cast<size_t>(kMaxConvLayers)) {
    return Status::InvalidArgument("more conv layers than metric slots");
  }
  return t;
}

// The CR cache fill is part of training, so the warm-up step's inserts are
// dropped; reuse counters then cover the timed steps only.
void StartTimedPhase(Trainee* t) {
  for (ConvLayer& c : t->convs) {
    if (c.reuse != nullptr) c.reuse->ClearCache();
  }
  t->model.network.ResetReuseStats();
}

// Span names of every network layer; they must outlive the tracer dump.
struct SpanNames {
  std::vector<std::string> fwd;
  std::vector<std::string> bwd;
};

SpanNames MakeSpanNames(const Network& net) {
  SpanNames names;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    names.fwd.push_back("nn." + net.layer(i)->name() + ".fwd");
    names.bwd.push_back("nn." + net.layer(i)->name() + ".bwd");
  }
  return names;
}

constexpr const char* kStepSpan = "step";
constexpr const char* kDataSpan = "data.next";
constexpr const char* kLossSpan = "nn.loss";
constexpr const char* kOptimizerSpan = "nn.optimizer";

struct StepOutcome {
  double loss = 0.0;
  Tensor logits;
};

// One training step through the public per-layer calls, each wrapped in a
// span (recorded only while the tracer is enabled). Same operations in the
// same order as adr::TrainStep. When `conv_inputs` is non-null, each conv
// layer's input is copied there; callers pass it only on an untimed step.
StepOutcome LayerwiseStep(Trainee* t, const SpanNames& names,
                          std::vector<Tensor>* conv_inputs) {
  TraceSpan step_span(kStepSpan);
  {
    TraceSpan span(kDataSpan);
    t->loader->Next(&t->batch);
  }
  Network& net = t->model.network;
  Tensor current;
  size_t conv = 0;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    const Tensor& in = i == 0 ? t->batch.images : current;
    if (conv_inputs != nullptr && conv < t->convs.size() &&
        t->convs[conv].index == i) {
      (*conv_inputs)[conv++] = in;
    }
    TraceSpan span(names.fwd[i].c_str());
    Tensor out = net.layer(i)->Forward(in, /*training=*/true);
    current = std::move(out);
  }
  StepOutcome outcome;
  LossResult loss;
  {
    TraceSpan span(kLossSpan);
    loss = SoftmaxCrossEntropy(current, t->batch.labels);
  }
  outcome.loss = loss.loss;
  outcome.logits = std::move(current);
  Tensor grad = std::move(loss.grad_logits);
  for (size_t i = net.num_layers(); i-- > 0;) {
    TraceSpan span(names.bwd[i].c_str());
    grad = net.layer(i)->Backward(grad);
  }
  {
    TraceSpan span(kOptimizerSpan);
    t->optimizer->Step(t->params, t->grads);
  }
  return outcome;
}

// Losses of the warm-up step and the first `steps` timed steps of a twin
// trained with adr::TrainStep — the reference the layer-wise step must
// match bit for bit.
Result<std::vector<double>> ReferenceLosses(const Workload& w, int steps) {
  ADR_ASSIGN_OR_RETURN(std::unique_ptr<Trainee> twin, BuildTrainee(w));
  std::vector<double> losses;
  for (int s = 0; s <= steps; ++s) {
    twin->loader->Next(&twin->batch);
    losses.push_back(
        TrainStep(&twin->model.network, twin->optimizer.get(), twin->batch)
            .loss);
    if (s == 0) StartTimedPhase(twin.get());
  }
  return losses;
}

// Inference-mode accuracy of the network as trained — with its warm CR
// cache, whose stale outputs the later layers learned to consume — on
// held-out samples: indices past the training set of the same generator,
// so the class templates match and no held-out image was trained on.
Result<double> HeldOutAccuracy(const Workload& w, Network* network) {
  SyntheticImageConfig config = w.data;
  config.num_samples = w.data.num_samples + w.eval_samples;
  ADR_ASSIGN_OR_RETURN(SyntheticImageDataset eval,
                       SyntheticImageDataset::Create(config));
  int64_t correct = 0;
  int64_t seen = 0;
  for (int64_t start = w.data.num_samples;
       start + w.batch_size <= config.num_samples; start += w.batch_size) {
    const Batch batch = MakeBatch(eval, start, w.batch_size);
    const Tensor logits = network->Forward(batch.images, false);
    correct += SoftmaxCrossEntropy(logits, batch.labels).num_correct;
    seen += batch.size();
  }
  if (seen == 0) return Status::InvalidArgument("empty held-out set");
  return static_cast<double>(correct) / static_cast<double>(seen);
}

template <typename Fn>
double MedianMillis(Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < kReplayReps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    ms.push_back(MillisSince(start));
  }
  return Median(std::move(ms));
}

// Per-conv-layer metric values, zero where a layer lacks the mechanism.
struct ConvMetrics {
  double fwd_ms = 0, bwd_ms = 0;
  double im2col_ms = 0, gemm_fwd_ms = 0, gemm_dw_ms = 0, gemm_dx_ms = 0;
  double col2im_ms = 0, gemm_gflops = 0, gemm_gflop = 0, cols_mb = 0;
  double hash_ms = 0, group_ms = 0;
  double r_c = 0, macs_frac = 0;
  double cache_hit_rate = 0, cache_entries = 0, cache_mb = 0;
  double cache_find_ms = 0;
  double workspace_mb = 0, heap_allocs = 0;
};

// Replays the dense kernels of a conv layer (and, for reuse layers, the
// clustering and cache lookup) on its captured last-step input.
void ReplayConv(const ConvLayer& c, const Tensor& input, ConvMetrics* m) {
  const ConvGeometry& geo = c.geometry;
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t mm = c.weight->shape()[1];
  std::vector<float> cols(static_cast<size_t>(n * k));
  std::vector<float> y(static_cast<size_t>(n * mm));
  std::vector<float> dw(static_cast<size_t>(k * mm));
  std::vector<float> dx(static_cast<size_t>(n * k));
  std::vector<float> grad_in(static_cast<size_t>(input.num_elements()));
  const float* w = c.weight->data();
  m->im2col_ms =
      MedianMillis([&] { Im2Col(geo, input.data(), cols.data()); });
  m->gemm_fwd_ms =
      MedianMillis([&] { Gemm(cols.data(), w, y.data(), n, k, mm); });
  // The forward output stands in for dY: replay timing is value-blind.
  m->gemm_dw_ms = MedianMillis(
      [&] { GemmTransA(cols.data(), y.data(), dw.data(), k, n, mm); });
  m->gemm_dx_ms = MedianMillis(
      [&] { GemmTransB(y.data(), w, dx.data(), n, mm, k); });
  m->col2im_ms =
      MedianMillis([&] { Col2Im(geo, dx.data(), grad_in.data()); });
  m->gemm_gflop = 3.0 * 2.0 * static_cast<double>(n) * k * mm / 1e9;
  const double gemm_ms = m->gemm_fwd_ms + m->gemm_dw_ms + m->gemm_dx_ms;
  m->gemm_gflops = gemm_ms > 0 ? m->gemm_gflop / (gemm_ms / 1e3) : 0.0;
  m->cols_mb = static_cast<double>(n * k) * sizeof(float) / (1 << 20);

  if (c.reuse == nullptr || !c.reuse->reuse_config().enabled) return;
  const ReuseConfig& cfg = c.reuse->reuse_config();
  Result<BlockLshFamilies> families = BlockLshFamilies::Create(
      k, cfg.EffectiveLength(k), cfg.num_hashes, cfg.seed);
  ADR_CHECK(families.ok()) << families.status().ToString();
  const int64_t blocks = families->num_blocks();
  std::vector<std::vector<LshSignature>> row_sigs(blocks);
  std::vector<std::vector<LshSignature>> cluster_sigs(blocks);
  m->hash_ms = MedianMillis([&] {
    for (int64_t b = 0; b < blocks; ++b) {
      families->family(b).HashRows(cols.data() + families->block_offset(b),
                                   n, k, &row_sigs[b]);
    }
  });
  m->group_ms = MedianMillis([&] {
    for (int64_t b = 0; b < blocks; ++b) {
      ClusterBySignature(row_sigs[b], &cluster_sigs[b]);
    }
  });
  const ClusterReuseCache* cache = c.reuse->cache();
  if (cache == nullptr) return;
  std::vector<int32_t> entries;
  m->cache_find_ms = MedianMillis([&] {
    for (int64_t b = 0; b < blocks; ++b) {
      const int64_t count = static_cast<int64_t>(cluster_sigs[b].size());
      entries.resize(static_cast<size_t>(count));
      cache->FindBatch(b, cluster_sigs[b].data(), count, entries.data());
    }
  });
}

// Span statistics of the traced steps, from the tracer's main-thread
// events.
struct TraceBreakdown {
  double data_next_ms = 0;
  std::vector<double> conv_fwd_ms, conv_bwd_ms;
  double other_fwd_ms = 0, other_bwd_ms = 0, loss_ms = 0, optimizer_ms = 0;
  double coverage_frac = 0;  ///< (data.* + nn.*) span time / step time
  std::string self_time_table;
};

TraceBreakdown BreakDownTrace(const Trainee& t, const SpanNames& names) {
  std::vector<TraceEvent> events = Tracer::Global().SnapshotEvents();
  int main_tid = -1;
  for (const TraceEvent& e : events) {
    if (e.name == kStepSpan) main_tid = e.tid;
  }
  std::erase_if(events,
                [&](const TraceEvent& e) { return e.tid != main_tid; });
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.duration_us > b.duration_us;
            });

  // Category of each of this file's span names. Library-internal spans
  // are absent and only feed the self-time table.
  enum Kind { kData, kConvFwd, kConvBwd, kOtherFwd, kOtherBwd, kLoss, kOpt };
  struct Category {
    Kind kind;
    size_t conv;
  };
  std::unordered_map<const char*, Category> category;
  category[kDataSpan] = {kData, 0};
  category[kLossSpan] = {kLoss, 0};
  category[kOptimizerSpan] = {kOpt, 0};
  for (size_t i = 0; i < names.fwd.size(); ++i) {
    category[names.fwd[i].c_str()] = {kOtherFwd, 0};
    category[names.bwd[i].c_str()] = {kOtherBwd, 0};
  }
  for (size_t c = 0; c < t.convs.size(); ++c) {
    category[names.fwd[t.convs[c].index].c_str()] = {kConvFwd, c};
    category[names.bwd[t.convs[c].index].c_str()] = {kConvBwd, c};
  }

  const size_t nconv = t.convs.size();
  std::vector<double> data, other_fwd, other_bwd, loss, opt, coverage;
  std::vector<std::vector<double>> conv_fwd(nconv), conv_bwd(nconv);
  // Self time: each span minus the time of its direct children.
  std::vector<int64_t> child_us(events.size(), 0);
  std::vector<size_t> stack;
  size_t i = 0;
  while (i < events.size()) {
    if (events[i].name != kStepSpan) {
      ++i;
      continue;
    }
    const int64_t step_end = events[i].start_us + events[i].duration_us;
    double d = 0, of = 0, ob = 0, l = 0, o = 0, covered = 0;
    std::vector<double> cf(nconv, 0), cb(nconv, 0);
    stack.assign(1, i);
    size_t j = i + 1;
    for (; j < events.size() && events[j].start_us < step_end; ++j) {
      while (events[stack.back()].start_us + events[stack.back()].duration_us <=
             events[j].start_us) {
        stack.pop_back();
      }
      child_us[stack.back()] += events[j].duration_us;
      const bool top_level = stack.size() == 1;
      stack.push_back(j);
      auto it = category.find(events[j].name);
      if (it == category.end() || !top_level) continue;
      const double ms = events[j].duration_us / 1e3;
      covered += ms;
      switch (it->second.kind) {
        case kData: d += ms; break;
        case kConvFwd: cf[it->second.conv] += ms; break;
        case kConvBwd: cb[it->second.conv] += ms; break;
        case kOtherFwd: of += ms; break;
        case kOtherBwd: ob += ms; break;
        case kLoss: l += ms; break;
        case kOpt: o += ms; break;
      }
    }
    data.push_back(d);
    other_fwd.push_back(of);
    other_bwd.push_back(ob);
    loss.push_back(l);
    opt.push_back(o);
    for (size_t c = 0; c < nconv; ++c) {
      conv_fwd[c].push_back(cf[c]);
      conv_bwd[c].push_back(cb[c]);
    }
    coverage.push_back(covered / (events[i].duration_us / 1e3));
    i = j;
  }

  TraceBreakdown out;
  out.data_next_ms = Median(data);
  out.other_fwd_ms = Median(other_fwd);
  out.other_bwd_ms = Median(other_bwd);
  out.loss_ms = Median(loss);
  out.optimizer_ms = Median(opt);
  out.coverage_frac = Median(coverage);
  for (size_t c = 0; c < nconv; ++c) {
    out.conv_fwd_ms.push_back(Median(conv_fwd[c]));
    out.conv_bwd_ms.push_back(Median(conv_bwd[c]));
  }

  struct SelfTime {
    int64_t calls = 0;
    int64_t total_us = 0;
    int64_t self_us = 0;
  };
  std::unordered_map<std::string, SelfTime> by_name;
  for (size_t e = 0; e < events.size(); ++e) {
    SelfTime& s = by_name[events[e].name];
    ++s.calls;
    s.total_us += events[e].duration_us;
    s.self_us += events[e].duration_us - child_us[e];
  }
  std::vector<std::pair<std::string, SelfTime>> rows(by_name.begin(),
                                                     by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  const double steps = std::max<double>(1.0, static_cast<double>(data.size()));
  char line[256];
  std::snprintf(line, sizeof(line), "%-36s %8s %14s %14s\n", "span",
                "calls", "total ms/step", "self ms/step");
  out.self_time_table = line;
  for (const auto& [name, s] : rows) {
    std::snprintf(line, sizeof(line), "%-36s %8lld %14.3f %14.3f\n",
                  name.c_str(), static_cast<long long>(s.calls),
                  s.total_us / 1e3 / steps, s.self_us / 1e3 / steps);
    out.self_time_table += line;
  }
  return out;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"cifarnet-dense-2t", "cifarnet-reuse-2t", "alexnet-cr-1t"};
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.seed = seed;
  if (name == "cifarnet-dense-2t" || name == "cifarnet-reuse-2t") {
    w.model = "cifarnet";
    w.model_options.num_classes = 24;
    w.model_options.input_size = 32;
    w.model_options.width = 0.5;
    w.model_options.fc_width = 0.25;
    w.data = Table4Task(32, 2048, 0, 24, 0.5f);
    w.eval_samples = 512;
    w.batch_size = 32;
    w.threads = 2;
    w.episodes = 9;
    w.episode_steps = 30;
    if (name == "cifarnet-reuse-2t") {
      w.model_options.use_reuse = true;
      w.model_options.reuse = ReuseConfigBuilder()
                                  .SubVectorLength(25)
                                  .NumHashes(12)
                                  .ClusterReuse(false)
                                  .BuildUnchecked();
    }
  } else if (name == "alexnet-cr-1t") {
    w.model = "alexnet";
    w.model_options.num_classes = 12;
    w.model_options.input_size = 67;
    w.model_options.width = 0.25;
    w.model_options.fc_width = 0.05;
    w.data = Table4Task(67, 1024, 0, 12, 0.4f);
    w.eval_samples = 384;
    w.batch_size = 16;
    w.threads = 1;
    w.episodes = 10;
    w.episode_steps = 40;
    w.model_options.use_reuse = true;
    w.model_options.reuse = ReuseConfigBuilder()
                                .SubVectorLength(10)
                                .NumHashes(20)
                                .ClusterReuse(true)
                                .BuildUnchecked();
  } else {
    return Status::NotFound("unknown workload: " + name);
  }
  ADR_RETURN_NOT_OK(w.model_options.reuse.Validate());
  return w;
}

Workload ForEpisode(const Workload& w, int episode) {
  Workload e = w;
  const uint64_t seed = DeriveSeed(w.seed, static_cast<uint64_t>(episode));
  e.data.seed = DeriveSeed(seed, 0);
  e.model_options.seed = DeriveSeed(seed, 1);
  e.model_options.reuse.seed = DeriveSeed(seed, 2);
  e.shuffle_seed = DeriveSeed(seed, 3);
  return e;
}

Result<double> TailPercentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    return Status::InvalidArgument("percentile must lie in (0, 1)");
  }
  const int64_t n = static_cast<int64_t>(samples.size());
  const int64_t rank = static_cast<int64_t>(std::ceil(q * n));  // 1-based
  if (n - rank < 10) {
    return Status::FailedPrecondition(
        "percentile needs at least ten samples beyond it; have " +
        std::to_string(n) + " samples");
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
           ch == '.' || ch == '-';
  });
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += i == 0 ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Result<RunResult> RunWorkload(const Workload& w, const RunOptions& options) {
  if (w.episode_steps < kLossWindow || w.episodes < 1) {
    return Status::InvalidArgument("too few episodes or steps per episode");
  }
  ThreadPool::SetGlobalThreads(w.threads);
  RunResult result;
  auto fail = [&](std::string why) {
    result.correct = false;
    result.errors.push_back(std::move(why));
  };

  // Episode 0's first steps must match adr::TrainStep bit for bit.
  ADR_ASSIGN_OR_RETURN(const std::vector<double> reference,
                       ReferenceLosses(ForEpisode(w, 0), kFidelitySteps));

  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  tracer.Clear();
  SpanNames names;
  std::unique_ptr<Trainee> t;
  std::vector<double> setup_s, build_ms, step_ms, traced_ms, untraced_ms;
  std::vector<int64_t> slabs_before;
  std::vector<Tensor> conv_inputs;
  double loss_sum = 0.0, warmup_sum = 0.0, accuracy_sum = 0.0;
  for (int episode = 0; episode < w.episodes; ++episode) {
    const Workload ew = ForEpisode(w, episode);
    // Setup: dataset + model build + the warm-up step that sizes every
    // arena. The CR cache fill it started is dropped, so the fill is
    // timed as training.
    t.reset();
    // Hands the previous episode's freed heap back to the OS, so a hole
    // left by worker-thread allocation order cannot stay resident and
    // peak_rss_mb depends on one episode's allocations, not on timing.
    malloc_trim(0);
    const Clock::time_point setup_start = Clock::now();
    ADR_ASSIGN_OR_RETURN(t, BuildTrainee(ew));
    if (names.fwd.empty()) names = MakeSpanNames(t->model.network);
    std::vector<double> losses = {LayerwiseStep(t.get(), names, nullptr).loss};
    setup_s.push_back(MillisSince(setup_start) / 1e3);
    build_ms.push_back(t->build_ms);
    StartTimedPhase(t.get());
    slabs_before.clear();
    for (const ConvLayer& c : t->convs) {
      slabs_before.push_back(c.workspace->alloc_slabs());
    }

    // Step 0 is the warm-up; timed steps are 1..episode_steps.
    std::vector<bool> bad = {!std::isfinite(losses[0])};
    for (int64_t s = 1; s <= w.episode_steps; ++s) {
      // A traced run captures the conv inputs for the replays on its very
      // last step, which is neither traced nor timed. Before that it
      // alternates traced and untraced steps, so both see the same
      // training phase and their medians give the overhead.
      const bool capture = options.trace && episode == w.episodes - 1 &&
                           s == w.episode_steps;
      if (capture) conv_inputs.assign(t->convs.size(), Tensor());
      const bool traced = options.trace && !capture && s % 2 == 0;
      tracer.SetEnabled(traced);
      const Clock::time_point start = Clock::now();
      StepOutcome outcome =
          LayerwiseStep(t.get(), names, capture ? &conv_inputs : nullptr);
      const double ms = MillisSince(start);
      tracer.SetEnabled(false);
      if (!capture) {
        step_ms.push_back(ms);
        (traced ? traced_ms : untraced_ms).push_back(ms);
      }
      losses.push_back(outcome.loss);
      bad.push_back(!std::isfinite(outcome.loss) ||
                    !AllFinite(outcome.logits));
    }
    for (size_t s = 0; s < losses.size(); ++s) {
      const std::string where =
          "episode " + std::to_string(episode) + " step " + std::to_string(s);
      if (bad[s]) {
        fail(where + ": non-finite loss or logits");
      } else if (episode == 0 && s < reference.size() &&
                 !(losses[s] == reference[s])) {
        bad[s] = true;
        fail(where + ": loss differs from the reference");
      }
      if (bad[s]) ++result.failed;
    }
    result.attempted += static_cast<int64_t>(losses.size());
    for (int64_t s = w.episode_steps - kLossWindow + 1; s <= w.episode_steps;
         ++s) {
      loss_sum += losses[static_cast<size_t>(s)];
    }
    warmup_sum += losses[0];
    ADR_ASSIGN_OR_RETURN(const double accuracy,
                         HeldOutAccuracy(ew, &t->model.network));
    accuracy_sum += accuracy;
  }
  result.peak_rss_mb = PeakRssMb();
  if (result.failed > 0) result.correct = false;
  result.final_loss = loss_sum / (kLossWindow * w.episodes);
  result.eval_accuracy = accuracy_sum / w.episodes;
  // Training must have learned something: the loss fell below the
  // warm-up steps' and held-out accuracy beats chance.
  if (!(result.final_loss < warmup_sum / w.episodes)) {
    fail("training loss did not decrease");
  }
  const double chance = 1.0 / w.model_options.num_classes;
  if (!(result.eval_accuracy > kMinAccuracyOverChance * chance)) {
    fail("held-out accuracy " + std::to_string(result.eval_accuracy) +
         " does not beat chance");
  }

  std::vector<Metric>& m = result.metrics;
  if (!options.trace) {
    double total_ms = 0.0;
    for (double ms : step_ms) total_ms += ms;
    ADR_ASSIGN_OR_RETURN(const double p90, TailPercentile(step_ms, 0.9));
    m.push_back({"samples_per_s", "1/s",
                 static_cast<double>(w.batch_size * step_ms.size()) /
                     (total_ms / 1e3)});
    m.push_back({"step_ms_p50", "ms", Median(step_ms)});
    m.push_back({"step_ms_p90", "ms", p90});
    m.push_back({"setup_s", "s", Median(setup_s)});
    m.push_back({"peak_rss_mb", "MiB", result.peak_rss_mb});
    m.push_back({"final_loss", "nats", result.final_loss});
    m.push_back({"eval_accuracy", "frac", result.eval_accuracy});
    m.push_back({"ok_step_frac", "frac",
                 static_cast<double>(result.attempted - result.failed) /
                     static_cast<double>(result.attempted)});
    return result;
  }

  // Traced run: per-layer metrics.
  if (!options.trace_path.empty()) {
    ADR_RETURN_NOT_OK(tracer.WriteJsonFile(options.trace_path));
  }
  const TraceBreakdown trace = BreakDownTrace(*t, names);
  tracer.Clear();  // events point at `names`
  result.self_time_table = trace.self_time_table;

  const auto reuse_stats = t->model.network.CollectReuseStats();
  std::vector<ConvMetrics> convs(kMaxConvLayers);
  for (size_t c = 0; c < t->convs.size(); ++c) {
    const ConvLayer& layer = t->convs[c];
    ConvMetrics& cm = convs[c];
    cm.fwd_ms = trace.conv_fwd_ms[c];
    cm.bwd_ms = trace.conv_bwd_ms[c];
    cm.workspace_mb =
        static_cast<double>(layer.workspace->reserved_bytes()) / (1 << 20);
    cm.heap_allocs =
        static_cast<double>(layer.workspace->alloc_slabs() - slabs_before[c]);
    // Dense layers execute every MAC and merge no rows.
    cm.r_c = 1.0;
    cm.macs_frac = 1.0;
    for (const auto& [name, stats] : reuse_stats) {
      if (name != layer.name || stats.macs_baseline <= 0) continue;
      cm.r_c = stats.avg_remaining_ratio;
      cm.macs_frac = stats.macs_executed / stats.macs_baseline;
    }
    if (layer.reuse != nullptr && layer.reuse->cache() != nullptr) {
      const ClusterReuseCache::Stats cs = layer.reuse->cache()->GetStats();
      cm.cache_hit_rate = cs.lookups > 0 ? static_cast<double>(cs.hits) /
                                               static_cast<double>(cs.lookups)
                                         : 0.0;
      cm.cache_entries = static_cast<double>(cs.entries);
      cm.cache_mb = static_cast<double>(cs.resident_bytes) / (1 << 20);
    }
    ReplayConv(layer, conv_inputs[c], &cm);
  }

  m.push_back({"data.next_ms", "ms", trace.data_next_ms});
  m.push_back({"models.build_ms", "ms", Median(build_ms)});
  for (int c = 0; c < kMaxConvLayers; ++c) {
    const std::string l = "conv" + std::to_string(c + 1);
    const ConvMetrics& cm = convs[c];
    m.push_back({"nn." + l + ".fwd_ms", "ms", cm.fwd_ms});
    m.push_back({"nn." + l + ".bwd_ms", "ms", cm.bwd_ms});
    m.push_back({"tensor." + l + ".im2col_ms", "ms", cm.im2col_ms});
    m.push_back({"tensor." + l + ".gemm_fwd_ms", "ms", cm.gemm_fwd_ms});
    m.push_back({"tensor." + l + ".gemm_dw_ms", "ms", cm.gemm_dw_ms});
    m.push_back({"tensor." + l + ".gemm_dx_ms", "ms", cm.gemm_dx_ms});
    m.push_back({"tensor." + l + ".col2im_ms", "ms", cm.col2im_ms});
    m.push_back({"tensor." + l + ".gemm_gflops", "GFLOP/s", cm.gemm_gflops});
    m.push_back({"tensor." + l + ".gemm_gflop_computed", "GFLOP",
                 cm.gemm_gflop});
    m.push_back({"tensor." + l + ".cols_mb_computed", "MiB", cm.cols_mb});
    m.push_back({"clustering." + l + ".hash_ms", "ms", cm.hash_ms});
    m.push_back({"clustering." + l + ".group_ms", "ms", cm.group_ms});
    m.push_back({"core." + l + ".r_c", "frac", cm.r_c});
    m.push_back({"core." + l + ".macs_frac", "frac", cm.macs_frac});
    m.push_back({"core." + l + ".cache_hit_rate", "frac", cm.cache_hit_rate});
    m.push_back({"core." + l + ".cache_entries", "count", cm.cache_entries});
    m.push_back({"core." + l + ".cache_mb", "MiB", cm.cache_mb});
    m.push_back({"core." + l + ".cache_find_ms", "ms", cm.cache_find_ms});
    m.push_back({"core." + l + ".workspace_mb", "MiB", cm.workspace_mb});
    m.push_back({"core." + l + ".heap_allocs", "count", cm.heap_allocs});
  }
  m.push_back({"nn.other.fwd_ms", "ms", trace.other_fwd_ms});
  m.push_back({"nn.other.bwd_ms", "ms", trace.other_bwd_ms});
  m.push_back({"nn.loss_ms", "ms", trace.loss_ms});
  m.push_back({"nn.optimizer_ms", "ms", trace.optimizer_ms});
  m.push_back({"trace_coverage_frac", "frac", trace.coverage_frac});
  m.push_back({"trace_overhead_frac", "frac",
               Median(traced_ms) / Median(untraced_ms) - 1.0});
  return result;
}

}  // namespace adr::stepbench
