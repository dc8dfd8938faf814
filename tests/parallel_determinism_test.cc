// Bitwise determinism of the parallel kernels: the same inputs must give
// bit-identical results with 1, 2, 4 and 8 worker threads. This is the
// contract that makes the thread count a pure performance knob — training
// runs are reproducible on any machine.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/reuse_conv2d.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(ThreadPool::GlobalThreads()) {}
  ~ThreadCountGuard() { ThreadPool::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

void ExpectBitIdentical(const Tensor& a, const Tensor& b, const char* what,
                        int threads) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    ASSERT_EQ(pa[i], pb[i])
        << what << " differs at " << i << " with " << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, GemmBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const int64_t n = 300, k = 123, m = 77;
  Rng rng(31);
  Tensor a = Tensor::RandomGaussian(Shape({n, k}), &rng);
  Tensor b = Tensor::RandomGaussian(Shape({k, m}), &rng);

  ThreadPool::SetGlobalThreads(1);
  Tensor reference(Shape({n, m}));
  Gemm(a.data(), b.data(), reference.data(), n, k, m);

  for (const int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    Tensor c(Shape({n, m}));
    Gemm(a.data(), b.data(), c.data(), n, k, m);
    ExpectBitIdentical(c, reference, "Gemm", threads);

    Tensor ta(Shape({k, k}));
    GemmTransA(a.data(), a.data(), ta.data(), k, n, k);
    ThreadPool::SetGlobalThreads(1);
    Tensor ta_ref(Shape({k, k}));
    GemmTransA(a.data(), a.data(), ta_ref.data(), k, n, k);
    ExpectBitIdentical(ta, ta_ref, "GemmTransA", threads);
  }
}

// The three GEMMs at one (m, k, n): Gemm, GemmTransA (A stored k x m) and
// GemmTransB (B stored n x k), each at every thread count against its
// own 1-thread result.
void ExpectGemmsThreadIndependent(int64_t m, int64_t k, int64_t n,
                                  uint64_t seed) {
  Rng rng(seed);
  Tensor a = Tensor::RandomGaussian(Shape({m, k}), &rng);
  Tensor at = Tensor::RandomGaussian(Shape({k, m}), &rng);
  Tensor b = Tensor::RandomGaussian(Shape({k, n}), &rng);
  Tensor bt = Tensor::RandomGaussian(Shape({n, k}), &rng);
  const auto run = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<Tensor> out(3, Tensor(Shape({m, n})));
    Gemm(a.data(), b.data(), out[0].data(), m, k, n);
    GemmTransA(at.data(), b.data(), out[1].data(), m, k, n);
    GemmTransB(a.data(), bt.data(), out[2].data(), m, k, n);
    return out;
  };
  const std::vector<Tensor> reference = run(1);
  const char* names[] = {"Gemm", "GemmTransA", "GemmTransB"};
  for (const int threads : kThreadCounts) {
    const std::vector<Tensor> result = run(threads);
    for (size_t i = 0; i < result.size(); ++i) {
      ExpectBitIdentical(result[i], reference[i], names[i], threads);
    }
  }
}

TEST(ParallelDeterminismTest, AllGemmsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  ExpectGemmsThreadIndependent(300, 123, 77, 33);
  // Long reduction, small output: GemmTransA splits k into pieces (the
  // CifarNet conv1 dW shape, 75 x 32 with k = 32768).
  ExpectGemmsThreadIndependent(75, 32768, 32, 34);
}

TEST(ParallelDeterminismTest, CifarNetConvGemmsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // The three GEMMs of CifarNet's conv2 (N = 8192, K = 800, M = 32) and
  // conv1 (N = 32768, K = 75, M = 32) at batch 32, in the layer's
  // argument order.
  for (const auto& [n, k, mm] : {std::tuple<int64_t, int64_t, int64_t>{
                                     8192, 800, 32},
                                 std::tuple<int64_t, int64_t, int64_t>{
                                     32768, 75, 32}}) {
    Rng rng(static_cast<uint64_t>(k));
    Tensor cols = Tensor::RandomGaussian(Shape({n, k}), &rng);
    Tensor w = Tensor::RandomGaussian(Shape({k, mm}), &rng);
    Tensor dy = Tensor::RandomGaussian(Shape({n, mm}), &rng);
    const auto run = [&](int threads) {
      ThreadPool::SetGlobalThreads(threads);
      std::vector<Tensor> out = {Tensor(Shape({n, mm})), Tensor(Shape({k, mm})),
                                 Tensor(Shape({n, k}))};
      Gemm(cols.data(), w.data(), out[0].data(), n, k, mm);
      GemmTransA(cols.data(), dy.data(), out[1].data(), k, n, mm);
      GemmTransB(dy.data(), w.data(), out[2].data(), n, mm, k);
      return out;
    };
    const std::vector<Tensor> reference = run(1);
    const char* names[] = {"forward", "dW", "dX"};
    for (const int threads : {2, 4}) {
      const std::vector<Tensor> result = run(threads);
      for (size_t i = 0; i < result.size(); ++i) {
        ExpectBitIdentical(result[i], reference[i], names[i], threads);
      }
    }
  }
}

TEST(ParallelDeterminismTest, Conv2dBitIdenticalAcrossThreadCounts) {
  // Forward, the fused dX -> col2im backward, dW and db of a padded conv
  // layer, with more images than the backward's groups.
  ThreadCountGuard guard;
  Conv2dConfig config;
  config.in_channels = 5;
  config.out_channels = 12;
  config.kernel = 3;
  config.pad = 1;
  config.in_height = 9;
  config.in_width = 9;
  Rng rng(53);
  Tensor input = Tensor::RandomGaussian(Shape({11, 5, 9, 9}), &rng);
  Tensor grad_out = Tensor::RandomGaussian(Shape({11, 12, 9, 9}), &rng);
  const auto run = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    Rng init(54);
    Conv2d layer("conv", config, &init);
    std::vector<Tensor> out;
    out.push_back(layer.Forward(input, /*training=*/true));
    out.push_back(layer.Backward(grad_out));
    out.push_back(*layer.Gradients()[0]);
    out.push_back(*layer.Gradients()[1]);
    return out;
  };
  const std::vector<Tensor> reference = run(1);
  const char* names[] = {"output", "grad_input", "grad_weight", "grad_bias"};
  for (const int threads : kThreadCounts) {
    const std::vector<Tensor> result = run(threads);
    for (size_t i = 0; i < result.size(); ++i) {
      ExpectBitIdentical(result[i], reference[i], names[i], threads);
    }
  }
}

// Runs one forward + backward on a fresh, identically seeded layer and
// returns (output, grad_input, grad_weight, grad_bias).
std::vector<Tensor> RunReuseLayer(const Tensor& input,
                                  const Tensor& grad_out) {
  Conv2dConfig conv;
  conv.in_channels = 3;
  conv.out_channels = 8;
  conv.kernel = 3;
  conv.stride = 1;
  conv.pad = 1;
  conv.in_height = 8;
  conv.in_width = 8;
  ReuseConfig reuse = ReuseConfigBuilder()
                          .SubVectorLength(9)
                          .NumHashes(10)
                          .ClusterReuse(true)
                          .BuildUnchecked();
  Rng rng(91);
  ReuseConv2d layer("conv", conv, reuse, &rng);

  std::vector<Tensor> result;
  result.push_back(layer.Forward(input, /*training=*/true));
  result.push_back(layer.Backward(grad_out));
  result.push_back(*layer.Gradients()[0]);
  result.push_back(*layer.Gradients()[1]);
  return result;
}

TEST(ParallelDeterminismTest, ReuseConv2dBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(47);
  Tensor input = Tensor::RandomGaussian(Shape({4, 3, 8, 8}), &rng);
  Tensor grad_out = Tensor::RandomGaussian(Shape({4, 8, 8, 8}), &rng);

  ThreadPool::SetGlobalThreads(1);
  const std::vector<Tensor> reference = RunReuseLayer(input, grad_out);
  const char* names[] = {"output", "grad_input", "grad_weight", "grad_bias"};

  for (const int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<Tensor> run = RunReuseLayer(input, grad_out);
    ASSERT_EQ(run.size(), reference.size());
    for (size_t i = 0; i < run.size(); ++i) {
      ExpectBitIdentical(run[i], reference[i], names[i], threads);
    }
  }
}

}  // namespace
}  // namespace adr
