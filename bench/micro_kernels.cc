// google-benchmark microbenchmarks of the substrate kernels the reuse
// savings are measured against: GEMM, im2col and col2im, LSH hashing,
// the full clustered matmul vs its dense equivalent, and the
// activation-sized passes around the conv GEMMs (ReLU, max-pool, the
// conv epilogue).
//
// Every benchmark takes the worker thread count as its first argument
// (the "threads" column), so scaling of the parallel runtime is read
// straight off the report: compare threads=1 vs threads=4 rows.

#include <benchmark/benchmark.h>

#include <array>

#include "bench_json_main.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tests/matrix_reuse.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

constexpr int64_t kThreadCounts[] = {1, 2, 4};

// Reads the leading "threads" argument and points the global pool at it.
int64_t SetupThreads(const benchmark::State& state) {
  const int64_t threads = state.range(0);
  ThreadPool::SetGlobalThreads(static_cast<int>(threads));
  return threads;
}

void BM_Gemm(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  const int64_t m = state.range(3);
  Rng rng(1);
  Tensor a = Tensor::RandomGaussian(Shape({n, k}), &rng);
  Tensor b = Tensor::RandomGaussian(Shape({k, m}), &rng);
  Tensor c(Shape({n, m}));
  for (auto _ : state) {
    Gemm(a.data(), b.data(), c.data(), n, k, m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
void GemmArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "n", "k", "m"});
  for (const auto shape : {std::array<int64_t, 3>{256, 256, 256},
                           std::array<int64_t, 3>{1024, 400, 64},
                           std::array<int64_t, 3>{4096, 75, 64}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1], shape[2]});
    }
  }
}
BENCHMARK(BM_Gemm)->Apply(GemmArgs);

void BM_GemmTransA(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = state.range(1), k = state.range(2), m = state.range(3);
  Rng rng(2);
  Tensor a = Tensor::RandomGaussian(Shape({n, k}), &rng);   // n x k
  Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);  // n x m
  Tensor c(Shape({k, m}));
  for (auto _ : state) {
    GemmTransA(a.data(), dy.data(), c.data(), k, n, m);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
void GemmTransAArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "n", "k", "m"});
  // A small shape, then CifarNet conv2 and conv1 at batch 32.
  for (const auto shape : {std::array<int64_t, 3>{1024, 400, 64},
                           std::array<int64_t, 3>{8192, 800, 32},
                           std::array<int64_t, 3>{32768, 75, 32}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1], shape[2]});
    }
  }
}
BENCHMARK(BM_GemmTransA)->Apply(GemmTransAArgs);

void BM_GemmTransB(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = state.range(1), k = state.range(2), m = state.range(3);
  Rng rng(6);
  Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);  // n x m
  Tensor w = Tensor::RandomGaussian(Shape({k, m}), &rng);   // k x m
  Tensor c(Shape({n, k}));
  for (auto _ : state) {
    GemmTransB(dy.data(), w.data(), c.data(), n, m, k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
void GemmTransBArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "n", "k", "m"});
  // A small shape, then CifarNet conv2 and conv1 at batch 32.
  for (const auto shape : {std::array<int64_t, 3>{1024, 400, 64},
                           std::array<int64_t, 3>{8192, 800, 32},
                           std::array<int64_t, 3>{32768, 75, 32}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1], shape[2]});
    }
  }
}
BENCHMARK(BM_GemmTransB)->Apply(GemmTransBArgs);

// The unfold and fold geometry of a BM_Im2Col / BM_Col2Im row:
// (threads, batch, channels, size, kernel, stride, pad), square images
// and kernels.
ConvGeometry UnfoldGeometry(const benchmark::State& state) {
  ConvGeometry geo;
  geo.batch = state.range(1);
  geo.in_channels = state.range(2);
  geo.in_height = geo.in_width = state.range(3);
  geo.kernel_h = geo.kernel_w = state.range(4);
  geo.stride = state.range(5);
  geo.pad = state.range(6);
  return geo;
}
void UnfoldArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames(
      {"threads", "batch", "channels", "size", "kernel", "stride", "pad"});
  // The step benchmark's convs: CifarNet conv1 and conv2 (width 0.5,
  // batch 32), and AlexNet conv1 (67 x 67 input, batch 16).
  for (const auto shape : {std::array<int64_t, 6>{32, 3, 32, 5, 1, 2},
                           std::array<int64_t, 6>{32, 32, 16, 5, 1, 2},
                           std::array<int64_t, 6>{16, 3, 67, 11, 4, 0}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1], shape[2], shape[3], shape[4],
                   shape[5]});
    }
  }
}

void BM_Im2Col(benchmark::State& state) {
  SetupThreads(state);
  const ConvGeometry geo = UnfoldGeometry(state);
  Rng rng(3);
  Tensor input = Tensor::RandomGaussian(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}), &rng);
  Tensor cols(Shape({geo.unfolded_rows(), geo.unfolded_cols()}));
  for (auto _ : state) {
    Im2Col(geo, input, &cols);
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * cols.num_elements());
}
BENCHMARK(BM_Im2Col)->Apply(UnfoldArgs);

void BM_Col2Im(benchmark::State& state) {
  SetupThreads(state);
  const ConvGeometry geo = UnfoldGeometry(state);
  Rng rng(3);
  Tensor cols = Tensor::RandomGaussian(
      Shape({geo.unfolded_rows(), geo.unfolded_cols()}), &rng);
  Tensor grad_input(
      Shape({geo.batch, geo.in_channels, geo.in_height, geo.in_width}));
  for (auto _ : state) {
    Col2Im(geo, cols, &grad_input);
    benchmark::DoNotOptimize(grad_input.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * cols.num_elements());
}
BENCHMARK(BM_Col2Im)->Apply(UnfoldArgs);

void ThreadsOnlyArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads"});
  for (const int64_t threads : kThreadCounts) bench->Args({threads});
}

void BM_LshHash(benchmark::State& state) {
  SetupThreads(state);
  const int64_t rows = 4096;
  const int64_t dim = state.range(1);
  const int num_hashes = static_cast<int>(state.range(2));
  LshFamily family;
  const Status status = LshFamily::Create(dim, num_hashes, 7, &family);
  if (!status.ok()) {
    state.SkipWithError(status.ToString().c_str());
    return;
  }
  Rng rng(4);
  Tensor data = Tensor::RandomGaussian(Shape({rows, dim}), &rng);
  std::vector<LshSignature> sigs;
  for (auto _ : state) {
    family.HashRows(data.data(), rows, dim, &sigs);
    benchmark::DoNotOptimize(sigs.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * dim * num_hashes);
}
void LshHashArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "dim", "h"});
  for (const auto shape :
       {std::array<int64_t, 2>{400, 8}, std::array<int64_t, 2>{400, 16},
        std::array<int64_t, 2>{25, 8}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1]});
    }
  }
}
BENCHMARK(BM_LshHash)->Apply(LshHashArgs);

// Dense vs clustered forward on a redundant matrix: the headline kernel
// comparison. Items processed counts the *baseline* work so the reported
// throughput difference is the effective speedup.
void SetupRedundant(Tensor* x, Tensor* w, int64_t n, int64_t k, int64_t m) {
  Rng rng(5);
  Tensor protos = Tensor::RandomGaussian(Shape({16, k}), &rng);
  *x = Tensor(Shape({n, k}));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t p = static_cast<int64_t>(rng.NextBounded(16));
    for (int64_t j = 0; j < k; ++j) {
      x->at(i, j) = protos.at(p, j) + 0.05f * rng.NextGaussian();
    }
  }
  *w = Tensor::RandomGaussian(Shape({k, m}), &rng);
}

void BM_DenseForward(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = 4096, k = 400, m = 64;
  Tensor x, w;
  SetupRedundant(&x, &w, n, k, m);
  Tensor y(Shape({n, m}));
  for (auto _ : state) {
    Gemm(x.data(), w.data(), y.data(), n, k, m);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
BENCHMARK(BM_DenseForward)->Apply(ThreadsOnlyArgs);

void BM_ClusteredForward(benchmark::State& state) {
  SetupThreads(state);
  const int64_t n = 4096, k = 400, m = 64;
  const int64_t l = state.range(1);
  const int h = static_cast<int>(state.range(2));
  Tensor x, w;
  SetupRedundant(&x, &w, n, k, m);
  auto families = BlockLshFamilies::Create(k, l, h, 11);
  if (!families.ok()) {
    state.SkipWithError(families.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    MatrixForwardResult result =
        MatrixForward(*families, x.data(), n, w, nullptr, n, nullptr);
    benchmark::DoNotOptimize(result.y_rows.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k * m);
}
void ClusteredForwardArgs(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"threads", "L", "H"});
  for (const auto shape :
       {std::array<int64_t, 2>{400, 8}, std::array<int64_t, 2>{100, 8},
        std::array<int64_t, 2>{25, 12}}) {
    for (const int64_t threads : kThreadCounts) {
      bench->Args({threads, shape[0], shape[1]});
    }
  }
}
BENCHMARK(BM_ClusteredForward)->Apply(ClusteredForwardArgs);

// The activation-sized passes of a dense conv step, at CifarNet conv1's
// output in the step benchmark: batch 32, 32 channels, 32 x 32.
const Shape kConv1Output({32, 32, 32, 32});

void BM_Relu(benchmark::State& state) {
  SetupThreads(state);
  Rng rng(12);
  const Tensor input = Tensor::RandomGaussian(kConv1Output, &rng);
  const Tensor grad = Tensor::RandomGaussian(kConv1Output, &rng);
  Relu relu("relu");
  for (auto _ : state) {
    Tensor out = relu.Forward(input, /*training=*/true);
    Tensor dx = relu.Backward(grad);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * input.num_elements());
}
BENCHMARK(BM_Relu)->Apply(ThreadsOnlyArgs);

void BM_MaxPool(benchmark::State& state) {
  SetupThreads(state);
  Rng rng(13);
  const Tensor input = Tensor::RandomGaussian(kConv1Output, &rng);
  const Tensor grad = Tensor::RandomGaussian(Shape({32, 32, 16, 16}), &rng);
  MaxPool2d pool("pool", PoolConfig{2, 2});
  for (auto _ : state) {
    Tensor out = pool.Forward(input, /*training=*/true);
    Tensor dx = pool.Backward(grad);
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(state.iterations() * input.num_elements());
}
BENCHMARK(BM_MaxPool)->Apply(ThreadsOnlyArgs);

// Forward: GEMM rows + bias to NCHW. Backward: NCHW dy to rows, and db.
void BM_ConvEpilogue(benchmark::State& state) {
  SetupThreads(state);
  const int64_t batch = kConv1Output[0], channels = kConv1Output[1];
  const int64_t height = kConv1Output[2], width = kConv1Output[3];
  Rng rng(14);
  const Tensor rows = Tensor::RandomGaussian(
      Shape({batch * height * width, channels}), &rng);
  const Tensor bias = Tensor::RandomGaussian(Shape({channels}), &rng);
  const Tensor grad = Tensor::RandomGaussian(kConv1Output, &rng);
  Tensor out(kConv1Output);
  Tensor dy(rows.shape());
  Tensor db(Shape({channels}));
  for (auto _ : state) {
    RowsToNchw(rows.data(), bias.data(), batch, channels, height, width,
               out.data());
    NchwToRows(grad, dy.data());
    NchwChannelSums(grad, db.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(dy.data());
    benchmark::DoNotOptimize(db.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows.num_elements());
}
BENCHMARK(BM_ConvEpilogue)->Apply(ThreadsOnlyArgs);

}  // namespace
}  // namespace adr

int main(int argc, char** argv) {
  return adr::bench::RunBenchmarksWithJson(argc, argv, "micro_kernels");
}
