// google-benchmark microbenchmarks of the reuse kernels themselves:
// forward clustering+GEMM, backward reuse vs exact backward, and the
// cluster reuse cache. Matrix workloads reach the reuse passes through
// tests/matrix_reuse.h, i.e. under MatrixGeometry.
//
// Every benchmark takes the worker thread count as its first argument
// (the "threads" column); compare threads=1 vs threads=4 rows to read
// the parallel runtime's scaling.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "bench_json_main.h"
#include "core/clustered_matmul.h"
#include "core/reuse_backward.h"
#include "core/reuse_conv2d.h"
#include "data/synthetic_images.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tests/clustered_forward_reference.h"
#include "tests/matrix_reuse.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

constexpr int64_t kThreadCounts[] = {1, 2, 4};

// Reads the leading "threads" argument and points the global pool at it.
void SetupThreads(const benchmark::State& state) {
  ThreadPool::SetGlobalThreads(static_cast<int>(state.range(0)));
}

void ThreadsOnlyArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads"});
  for (const int64_t threads : kThreadCounts) bench->Args({threads});
}

void ThreadsLHArgs(benchmark::internal::Benchmark* bench,
                   std::initializer_list<std::array<int64_t, 2>> lh) {
  bench->ArgNames({"threads", "L", "H"});
  for (const auto& shape : lh) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1]});
    }
  }
}

// Redundant unfolded matrix: prototypes + small noise.
struct Workload {
  Tensor x;
  Tensor w;
  Tensor dy;
  static constexpr int64_t kN = 4096;
  static constexpr int64_t kK = 400;
  static constexpr int64_t kM = 64;

  Workload() {
    Rng rng(17);
    Tensor protos = Tensor::RandomGaussian(Shape({32, kK}), &rng);
    x = Tensor(Shape({kN, kK}));
    for (int64_t i = 0; i < kN; ++i) {
      const int64_t p = static_cast<int64_t>(rng.NextBounded(32));
      for (int64_t j = 0; j < kK; ++j) {
        x.at(i, j) = protos.at(p, j) + 0.05f * rng.NextGaussian();
      }
    }
    w = Tensor::RandomGaussian(Shape({kK, kM}), &rng);
    dy = Tensor::RandomGaussian(Shape({kN, kM}), &rng);
  }
};

Workload& SharedWorkload() {
  static Workload* workload = new Workload();
  return *workload;
}

void BM_ExactBackward(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  Tensor dw(Shape({Workload::kK, Workload::kM}));
  Tensor dx(Shape({Workload::kN, Workload::kK}));
  for (auto _ : state) {
    GemmTransA(wl.x.data(), wl.dy.data(), dw.data(), Workload::kK,
               Workload::kN, Workload::kM);
    GemmTransB(wl.dy.data(), wl.w.data(), dx.data(), Workload::kN,
               Workload::kM, Workload::kK);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * Workload::kN *
                          Workload::kK * Workload::kM);
}
BENCHMARK(BM_ExactBackward)->Apply(ThreadsOnlyArgs);

void BM_ReuseBackward(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  auto families = BlockLshFamilies::Create(Workload::kK, l, h, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  const ReuseClustering clustering =
      MatrixForward(*families, wl.x.data(), Workload::kN, wl.w, nullptr,
                    Workload::kN, nullptr)
          .clustering;
  for (auto _ : state) {
    MatrixBackwardResult result = MatrixBackward(clustering, wl.w, wl.dy);
    benchmark::DoNotOptimize(result.grad_weight.data());
  }
  // Items = the dense work replaced, so throughput shows effective gain.
  state.SetItemsProcessed(state.iterations() * 2 * Workload::kN *
                          Workload::kK * Workload::kM);
}
BENCHMARK(BM_ReuseBackward)->Apply([](benchmark::internal::Benchmark* b) {
  ThreadsLHArgs(b, {{100, 8}, {25, 12}});
});

// The conv layer at the reuse-vs-dense probe shape: batch 32, 32 -> 64
// channels, 5 x 5 kernel, pad 2, on 16 x 16 inputs of uniform noise under
// a 5 x 5 box blur (N = 8192, K = 800, M = 64). H = 0 runs the dense
// Conv2d; otherwise ReuseConv2d at (L, H). BM_ConvForward times one
// training Forward; BM_ConvBackward times one Backward after an untimed
// training Forward. The layer stands alone, not first in a Network, so
// its Backward computes the input gradient as well as dW and db. The
// reuse/dense ratio of two rows at equal threads is the pass's measured
// speed-up.
const Tensor& BlurredConvInput() {
  static const Tensor* input = [] {
    constexpr int64_t kBatch = 32, kChannels = 32, kSize = 16, kRadius = 2;
    Rng rng(29);
    const Tensor noise = Tensor::RandomUniform(
        Shape({kBatch, kChannels, kSize, kSize}), &rng, 0.0f, 1.0f);
    auto* out = new Tensor(noise.shape());
    for (int64_t plane = 0; plane < kBatch * kChannels; ++plane) {
      const float* src = noise.data() + plane * kSize * kSize;
      float* dst = out->data() + plane * kSize * kSize;
      for (int64_t y = 0; y < kSize; ++y) {
        for (int64_t x = 0; x < kSize; ++x) {
          float sum = 0.0f;
          int count = 0;
          for (int64_t dy = -kRadius; dy <= kRadius; ++dy) {
            for (int64_t dx = -kRadius; dx <= kRadius; ++dx) {
              const int64_t yy = y + dy, xx = x + dx;
              if (yy < 0 || yy >= kSize || xx < 0 || xx >= kSize) continue;
              sum += src[yy * kSize + xx];
              ++count;
            }
          }
          dst[y * kSize + x] = sum / static_cast<float>(count);
        }
      }
    }
    return out;
  }();
  return *input;
}

std::unique_ptr<Layer> ProbeConvLayer(const benchmark::State& state,
                                      const Tensor& input) {
  Conv2dConfig config;
  config.in_channels = input.shape()[1];
  config.out_channels = 64;
  config.kernel = 5;
  config.pad = 2;
  config.in_height = input.shape()[2];
  config.in_width = input.shape()[3];
  Rng rng(31);
  if (state.range(2) == 0) {
    return std::make_unique<Conv2d>("dense", config, &rng);
  }
  ReuseConfig reuse;
  reuse.sub_vector_length = state.range(1);
  reuse.num_hashes = static_cast<int>(state.range(2));
  return std::make_unique<ReuseConv2d>("reuse", config, reuse, &rng);
}

void ProbeConvArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "L", "H"})
      ->ArgsProduct({{1, 4}, {0}, {0}})
      ->ArgsProduct({{1, 4}, {25}, {12}})
      ->ArgsProduct({{1, 4}, {100}, {10}})
      ->UseRealTime();
}

void BM_ConvForward(benchmark::State& state) {
  SetupThreads(state);
  const Tensor& input = BlurredConvInput();
  const std::unique_ptr<Layer> layer = ProbeConvLayer(state, input);
  for (auto _ : state) {
    Tensor output = layer->Forward(input, /*training=*/true);
    benchmark::DoNotOptimize(output.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ConvForward)->Apply(ProbeConvArgs);

void BM_ConvBackward(benchmark::State& state) {
  SetupThreads(state);
  const Tensor& input = BlurredConvInput();
  const std::unique_ptr<Layer> layer = ProbeConvLayer(state, input);
  Tensor grad_output = layer->Forward(input, /*training=*/true);
  {
    Rng dy_rng(37);
    grad_output = Tensor::RandomGaussian(grad_output.shape(), &dy_rng);
  }
  for (auto _ : state) {
    state.PauseTiming();
    layer->Forward(input, /*training=*/true);
    state.ResumeTiming();
    Tensor grad_input = layer->Backward(grad_output);
    benchmark::DoNotOptimize(grad_input.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ConvBackward)->Apply(ProbeConvArgs);

// An unfolded matrix for BM_ClusterOnly, with its width and row count.
struct ClusterRows {
  const float* x;
  int64_t k;
  int64_t n;
};

ClusterRows FlatRows() {
  return {SharedWorkload().x.data(), Workload::kK, Workload::kN};
}

// AlexNet conv1 at the training-step benchmark's scale: 16 synthetic
// 67x67x3 images (smooth class templates, translated, plus noise) unfolded
// by 11x11 stride-4 windows, K = 363 and N = 16 * 15 * 15 = 3600.
ClusterRows AlexNetConv1Rows() {
  static const Tensor* cols = [] {
    SyntheticImageConfig config = SyntheticImageConfig::CifarLike(16, 0);
    config.num_classes = 12;
    config.height = 67;
    config.width = 67;
    config.structured_noise = 0.4f;
    config.blob_radius_fraction = 0.35f;
    config.max_translation = 8;
    const Result<SyntheticImageDataset> data =
        SyntheticImageDataset::Create(config);
    ADR_CHECK(data.ok()) << data.status().ToString();
    ConvGeometry geo;
    geo.batch = 16;
    geo.in_channels = 3;
    geo.in_height = 67;
    geo.in_width = 67;
    geo.kernel_h = 11;
    geo.kernel_w = 11;
    geo.stride = 4;
    geo.pad = 0;
    Tensor images(Shape({geo.batch, 3, 67, 67}));
    const int64_t image_floats = 3 * 67 * 67;
    for (int64_t i = 0; i < geo.batch; ++i) {
      int label = 0;
      data->Get(i, images.data() + i * image_floats, &label);
    }
    auto* out =
        new Tensor(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
    Im2Col(geo, images.data(), out->data());
    return out;
  }();
  return {cols->data(), cols->shape()[1], cols->shape()[0]};
}

void BM_ClusterOnly(benchmark::State& state, ClusterRows (*source)()) {
  SetupThreads(state);
  const ClusterRows rows = source();
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  auto families = BlockLshFamilies::Create(rows.k, l, h, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  // The clustering phase of ClusteredForward, fed from an unfolded matrix:
  // L2-sized row tiles through the production clusterer, buffers recycled.
  StreamingSubVectorClusterer clusterer;
  const int64_t tile_rows = L2TileRows(rows.k);
  for (auto _ : state) {
    clusterer.Begin(&*families, rows.n, rows.n);
    for (int64_t row = 0; row < rows.n; row += tile_rows) {
      clusterer.ConsumeTile(rows.x + row * rows.k, row,
                            std::min(tile_rows, rows.n - row));
    }
    ReuseClustering clustering = clusterer.Finish();
    benchmark::DoNotOptimize(clustering.blocks.data());
    clusterer.Recycle(std::move(clustering));
  }
  state.SetItemsProcessed(state.iterations() * rows.n * rows.k * h);
}
BENCHMARK_CAPTURE(BM_ClusterOnly, flat, &FlatRows)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadsLHArgs(b, {{400, 8}, {25, 12}});
    });
BENCHMARK_CAPTURE(BM_ClusterOnly, alexnet_conv1, &AlexNetConv1Rows)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadsLHArgs(b, {{10, 20}});
    });

void BM_ClusterReuseCacheWarm(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  auto families = BlockLshFamilies::Create(Workload::kK, 100, 10, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  ClusterReuseCache cache;
  // Warm the cache once; steady state then reuses everything.
  MatrixForward(*families, wl.x.data(), Workload::kN, wl.w, nullptr,
                Workload::kN, &cache);
  for (auto _ : state) {
    MatrixForwardResult result = MatrixForward(
        *families, wl.x.data(), Workload::kN, wl.w, nullptr, Workload::kN,
        &cache);
    benchmark::DoNotOptimize(result.y_rows.data());
  }
  state.SetItemsProcessed(state.iterations() * Workload::kN * Workload::kK *
                          Workload::kM);
}
BENCHMARK(BM_ClusterReuseCacheWarm)->Apply(ThreadsOnlyArgs);

// The same steady-state forward with CR off: the cost of clustering +
// full centroid GEMM every batch. The gap to BM_ClusterReuseCacheWarm is
// what the warm cache saves.
void BM_ClusteredForwardCROff(benchmark::State& state) {
  SetupThreads(state);
  Workload& wl = SharedWorkload();
  auto families = BlockLshFamilies::Create(Workload::kK, 100, 10, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    MatrixForwardResult result = MatrixForward(
        *families, wl.x.data(), Workload::kN, wl.w, nullptr, Workload::kN,
        nullptr);
    benchmark::DoNotOptimize(result.y_rows.data());
  }
  state.SetItemsProcessed(state.iterations() * Workload::kN * Workload::kK *
                          Workload::kM);
}
BENCHMARK(BM_ClusteredForwardCROff)->Apply(ThreadsOnlyArgs);

// --- cluster-cache microbenches ------------------------------------------
// One block, kCacheResident resident entries (well past 10k so open
// addressing is measured at realistic occupancy), kCacheQueries all-hit
// lookups per iteration; items/sec = lookups/sec.

constexpr int64_t kCacheResident = 16384;
constexpr int64_t kCacheQueries = 4096;
constexpr int64_t kCacheRepLen = 25;
constexpr int64_t kCacheOutLen = 64;

LshSignature CacheBenchSignature(int64_t i) {
  LshSignature sig;
  sig.words[0] = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL + 1;
  sig.words[1] = static_cast<uint64_t>(i);
  return sig;
}

std::vector<LshSignature>& CacheBenchQueries() {
  static auto* queries = [] {
    auto* q = new std::vector<LshSignature>(
        static_cast<size_t>(kCacheQueries));
    Rng rng(23);
    for (auto& sig : *q) {
      sig = CacheBenchSignature(
          static_cast<int64_t>(rng.NextBounded(kCacheResident)));
    }
    return q;
  }();
  return *queries;
}

// Batched lookup against the slab-backed cache. Compare against
// BM_ReferenceCacheLookup below — the acceptance bar for the open
// addressing + batched API is >= 3x lower time per lookup at >= 10k
// resident entries.
void BM_ClusterCacheLookup(benchmark::State& state) {
  SetupThreads(state);
  ClusterReuseCache cache;
  std::vector<float> rep(kCacheRepLen, 1.0f);
  std::vector<float> out(kCacheOutLen, 2.0f);
  for (int64_t i = 0; i < kCacheResident; ++i) {
    cache.Insert(0, CacheBenchSignature(i), rep.data(), kCacheRepLen,
                 out.data(), kCacheOutLen);
  }
  const std::vector<LshSignature>& queries = CacheBenchQueries();
  std::vector<int32_t> entries(static_cast<size_t>(kCacheQueries));
  for (auto _ : state) {
    const int64_t hits = cache.FindBatch(0, queries.data(), kCacheQueries,
                                         entries.data());
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kCacheQueries);
}
BENCHMARK(BM_ClusterCacheLookup)->Apply(ThreadsOnlyArgs);

// The original map-based cache on the identical workload: one
// unordered_map probe (hash + node chase) per sequential Find call.
void BM_ReferenceCacheLookup(benchmark::State& state) {
  SetupThreads(state);
  ReferenceClusterCache cache;
  for (int64_t i = 0; i < kCacheResident; ++i) {
    ReferenceClusterCache::Entry entry;
    entry.representative.assign(static_cast<size_t>(kCacheRepLen), 1.0f);
    entry.output.assign(static_cast<size_t>(kCacheOutLen), 2.0f);
    cache.Insert(0, CacheBenchSignature(i), std::move(entry));
  }
  const std::vector<LshSignature>& queries = CacheBenchQueries();
  for (auto _ : state) {
    int64_t hits = 0;
    for (const LshSignature& sig : queries) {
      if (cache.Find(0, sig) != nullptr) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kCacheQueries);
}
BENCHMARK(BM_ReferenceCacheLookup)->Apply(ThreadsOnlyArgs);

// Steady-state insert under an entry budget: every insert of a fresh
// signature recycles a second-chance-evicted slot (zero allocations —
// the free list and tables reached capacity during the warm-up).
void BM_ClusterCacheInsert(benchmark::State& state) {
  SetupThreads(state);
  ClusterReuseCache cache;
  cache.set_max_entries(kCacheResident);
  std::vector<float> rep(kCacheRepLen, 1.0f);
  std::vector<float> out(kCacheOutLen, 2.0f);
  int64_t next = 0;
  for (; next < kCacheResident + 1024; ++next) {
    cache.Insert(0, CacheBenchSignature(next), rep.data(), kCacheRepLen,
                 out.data(), kCacheOutLen);
  }
  for (auto _ : state) {
    cache.Insert(0, CacheBenchSignature(next++), rep.data(), kCacheRepLen,
                 out.data(), kCacheOutLen);
  }
  state.counters["alloc_events"] =
      static_cast<double>(cache.alloc_events());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterCacheInsert)->Apply(ThreadsOnlyArgs);

// Conv-shaped workload for the layer's forward: a spatially periodic
// image (period 4) whose interior im2col rows repeat, scaled per image
// (signatures are scale-invariant, so clusters recur).
// K = 16*5*5 = 400 matches the flat Workload, N = 8*16*16 = 2048.
struct ConvWorkload {
  ConvGeometry geo;
  Tensor input;
  Tensor w;
  static constexpr int64_t kM = 64;

  ConvWorkload() {
    geo.batch = 8;
    geo.in_channels = 16;
    geo.in_height = 16;
    geo.in_width = 16;
    geo.kernel_h = 5;
    geo.kernel_w = 5;
    geo.stride = 1;
    geo.pad = 2;
    Rng rng(19);
    Tensor pattern = Tensor::RandomGaussian(
        Shape({geo.in_channels, 4, 4}), &rng);
    input = Tensor(Shape({geo.batch, geo.in_channels, geo.in_height,
                          geo.in_width}));
    float* dst = input.data();
    const float* pat = pattern.data();
    for (int64_t n = 0; n < geo.batch; ++n) {
      const float scale = 0.5f + 0.25f * static_cast<float>(n);
      for (int64_t c = 0; c < geo.in_channels; ++c) {
        for (int64_t y = 0; y < geo.in_height; ++y) {
          for (int64_t x = 0; x < geo.in_width; ++x) {
            *dst++ = scale * pat[(c * 4 + y % 4) * 4 + x % 4];
          }
        }
      }
    }
    w = Tensor::RandomGaussian(Shape({geo.unfolded_cols(), kM}), &rng);
  }
};

ConvWorkload& SharedConvWorkload() {
  static ConvWorkload* workload = new ConvWorkload();
  return *workload;
}

// The layer's forward data flow on a conv workload: im2col rows stream
// straight into hashing, the N x K matrix never exists.
void BM_FusedClusteredForward(benchmark::State& state) {
  SetupThreads(state);
  ConvWorkload& wl = SharedConvWorkload();
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  const int64_t n = wl.geo.unfolded_rows();
  const int64_t k = wl.geo.unfolded_cols();
  auto families = BlockLshFamilies::Create(k, l, h, 5);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  WorkspaceArena arena;
  StreamingSubVectorClusterer clusterer;
  for (auto _ : state) {
    arena.Reset();
    float* y = arena.AllocFloats(n * ConvWorkload::kM);
    ReuseClustering clustering;
    ReuseLayerStats stats;
    ClusteredForward(*families, wl.geo, wl.input.data(), wl.w, nullptr, n,
                     nullptr, &arena, &clusterer, y, &clustering, &stats);
    benchmark::DoNotOptimize(y);
    clusterer.Recycle(std::move(clustering));
  }
  state.counters["peak_workspace_bytes"] =
      static_cast<double>(arena.reserved_bytes());
  state.SetItemsProcessed(state.iterations() * n * k * ConvWorkload::kM);
}
BENCHMARK(BM_FusedClusteredForward)
    ->Apply([](benchmark::internal::Benchmark* b) {
      ThreadsLHArgs(b, {{100, 8}, {25, 12}});
    });

}  // namespace
}  // namespace adr

int main(int argc, char** argv) {
  return adr::bench::RunBenchmarksWithJson(argc, argv, "micro_reuse");
}
