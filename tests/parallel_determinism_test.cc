// Bitwise determinism of the parallel kernels: the same inputs must give
// bit-identical results with 1, 2, 4 and 8 worker threads. This is the
// contract that makes the thread count a pure performance knob — training
// runs are reproducible on any machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "core/reuse_conv2d.h"
#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "models/models.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tests/serial_pass_reference.h"
#include "tests/thread_count_guard.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

using testutil::ThreadCountGuard;

// Compares bit patterns, so +0.0f vs -0.0f and NaN payloads count too.
void ExpectBitIdentical(const Tensor& a, const Tensor& b, const char* what,
                        int threads) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    uint32_t bits_a = 0, bits_b = 0;
    std::memcpy(&bits_a, a.data() + i, sizeof(float));
    std::memcpy(&bits_b, b.data() + i, sizeof(float));
    ASSERT_EQ(bits_a, bits_b) << what << " differs at " << i << " with "
                              << threads << " threads: " << a.data()[i]
                              << " vs " << b.data()[i];
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

// The conv epilogue passes against the composition they replace:
// RowsToNchw with a bias is AddRowBias then the transpose, NchwToRows is
// the row-by-row transpose, and NchwChannelSums is ColumnSumsInto of the
// rows layout. Spatial sizes are not multiples of the transpose tile, and
// the shapes give several image chunks, several channel chunks, and one
// chunk wider than the channel lanes.
TEST(ParallelDeterminismTest, ConvEpiloguesMatchSerialComposition) {
  ThreadCountGuard guard;
  struct Case {
    int64_t batch, channels, height, width;
  };
  for (const Case& c : {Case{67, 13, 30, 33}, Case{2, 20, 31, 29}}) {
    const int64_t rows_n = c.batch * c.height * c.width;
    Rng rng(static_cast<uint64_t>(c.channels));
    const Tensor rows =
        Tensor::RandomGaussian(Shape({rows_n, c.channels}), &rng);
    const Tensor bias = Tensor::RandomGaussian(Shape({c.channels}), &rng);
    const Tensor grad = Tensor::RandomGaussian(
        Shape({c.batch, c.channels, c.height, c.width}), &rng);
    const Tensor ref_biased = testutil::ReferenceBiasedRowsToNchw(
        rows, bias.data(), c.batch, c.channels, c.height, c.width);
    const Tensor ref_plain = testutil::ReferenceBiasedRowsToNchw(
        rows, nullptr, c.batch, c.channels, c.height, c.width);
    const Tensor ref_rows = testutil::ReferenceNchwToRows(grad);
    const Tensor ref_db = testutil::ReferenceConvBiasGrad(grad);
    for (const int threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      Tensor biased(ref_biased.shape());
      RowsToNchw(rows.data(), bias.data(), c.batch, c.channels, c.height,
                 c.width, biased.data());
      ExpectBitIdentical(biased, ref_biased, "RowsToNchw + bias", threads);
      Tensor plain(ref_plain.shape());
      RowsToNchw(rows.data(), /*bias=*/nullptr, c.batch, c.channels, c.height,
                 c.width, plain.data());
      ExpectBitIdentical(plain, ref_plain, "RowsToNchw", threads);
      Tensor rows_back(ref_rows.shape());
      NchwToRows(grad, rows_back.data());
      ExpectBitIdentical(rows_back, ref_rows, "NchwToRows", threads);
      Tensor db(Shape({c.channels}));
      NchwChannelSums(grad, db.data());
      ExpectBitIdentical(db, ref_db, "NchwChannelSums", threads);
    }
  }
}

// Values on a coarse grid, with zeros, negative zeros, NaNs and ties.
Tensor GridValues(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::RandomGaussian(shape, &rng);
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.data()[i] = std::round(t.data()[i] * 4.0f) / 4.0f;
    if (i % 97 == 0) t.data()[i] = -0.0f;
    if (i % 89 == 0) t.data()[i] = std::numeric_limits<float>::quiet_NaN();
  }
  return t;
}

TEST(ParallelDeterminismTest, ReluMatchesSerialLoopAtAnyThreadCount) {
  ThreadCountGuard guard;
  // 3 chunks of 2^18 elements and a short fourth.
  const Shape shape({3, 7, 191, 197});
  const Tensor input = GridValues(shape, 61);
  Rng rng(62);
  const Tensor grad_out = Tensor::RandomGaussian(shape, &rng);
  Tensor ref_out(shape), ref_grad(shape);
  for (int64_t i = 0; i < input.num_elements(); ++i) {
    const bool positive = input.data()[i] > 0.0f;
    ref_out.data()[i] = positive ? input.data()[i] : 0.0f;
    ref_grad.data()[i] = grad_out.data()[i] * (positive ? 1.0f : 0.0f);
  }
  for (const int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    Relu relu("relu");
    // Twice through one layer: the kept mask must not leak across calls.
    relu.Forward(GridValues(shape, 63), /*training=*/true);
    ExpectBitIdentical(relu.Forward(input, /*training=*/true), ref_out,
                       "relu forward", threads);
    ExpectBitIdentical(relu.Backward(grad_out), ref_grad, "relu backward",
                       threads);
  }
}

TEST(ParallelDeterminismTest, MaxPoolMatchesSerialLoopAtAnyThreadCount) {
  ThreadCountGuard guard;
  // 24 x 37 planes make several plane chunks each way, at 2/2 and at the
  // overlapping 3/2 windows, whose argmaxes share input elements. One
  // all-NaN and one all--inf plane have windows with no maximum.
  const Shape shape({24, 37, 31, 29});
  Tensor input = GridValues(shape, 71);
  const int64_t plane = 31 * 29;
  std::fill_n(input.data() + 100 * plane, plane,
              std::numeric_limits<float>::quiet_NaN());
  std::fill_n(input.data() + 500 * plane, plane,
              -std::numeric_limits<float>::infinity());
  for (const int64_t kernel : {2, 3}) {
    const testutil::ReferencePool ref =
        testutil::ReferenceMaxPoolForward(input, kernel, /*stride=*/2);
    Rng rng(72);
    const Tensor grad_out =
        Tensor::RandomGaussian(ref.output.shape(), &rng);
    const Tensor ref_grad =
        testutil::ReferenceMaxPoolBackward(ref.argmax, grad_out, shape);
    for (const int threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      MaxPool2d pool("pool", PoolConfig{kernel, 2});
      ExpectBitIdentical(pool.Forward(input, /*training=*/true), ref.output,
                         "max-pool forward", threads);
      ExpectBitIdentical(pool.Backward(grad_out), ref_grad,
                         "max-pool backward", threads);
    }
  }
}

TEST(ParallelDeterminismTest, DenseBiasGradMatchesSerialColumnSums) {
  ThreadCountGuard guard;
  // db lands in the layer's own tensor, bitwise the serial column sums.
  const int64_t batch = 257, in = 5, out = 24;
  Rng rng(81);
  const Tensor input = Tensor::RandomGaussian(Shape({batch, in}), &rng);
  const Tensor grad_out = Tensor::RandomGaussian(Shape({batch, out}), &rng);
  const Tensor ref_db = testutil::ReferenceColumnSums(grad_out);
  for (const int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    Rng init(82);
    Dense dense("fc", in, out, &init);
    const Tensor* db_before = dense.Gradients()[1];
    dense.Forward(input, /*training=*/true);
    dense.Backward(grad_out);
    EXPECT_EQ(dense.Gradients()[1], db_before);
    ExpectBitIdentical(*dense.Gradients()[1], ref_db, "dense db", threads);
  }
}

TEST(ParallelDeterminismTest, DataLoaderMatchesSerialGetAtAnyThreadCount) {
  ThreadCountGuard guard;
  SyntheticImageConfig config = SyntheticImageConfig::CifarLike(200, 91);
  config.height = 16;
  config.width = 16;
  Result<SyntheticImageDataset> dataset = SyntheticImageDataset::Create(config);
  ASSERT_TRUE(dataset.ok());
  const int64_t batch_size = 37;
  const int64_t image_elems = 3 * 16 * 16;

  // Unshuffled: batch b holds samples [b * 37, b * 37 + 37).
  std::vector<Batch> reference(3);
  for (int64_t b = 0; b < 3; ++b) {
    reference[b].images = Tensor(Shape({batch_size, 3, 16, 16}));
    reference[b].labels.resize(batch_size);
    for (int64_t i = 0; i < batch_size; ++i) {
      dataset->Get(b * batch_size + i,
                   reference[b].images.data() + i * image_elems,
                   &reference[b].labels[static_cast<size_t>(i)]);
    }
  }
  const auto shuffled_batches = [&] {
    DataLoader loader(&*dataset, batch_size, /*shuffle=*/true, 92);
    std::vector<Batch> batches(7);  // crosses the epoch boundary
    for (Batch& batch : batches) loader.Next(&batch);
    return batches;
  };
  ThreadPool::SetGlobalThreads(1);
  const std::vector<Batch> shuffled_ref = shuffled_batches();
  for (const int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    DataLoader loader(&*dataset, batch_size, /*shuffle=*/false, 0);
    Batch batch;  // one Batch reused across calls, as training loops do
    for (const Batch& ref : reference) {
      loader.Next(&batch);
      ExpectBitIdentical(batch.images, ref.images, "loader images", threads);
      EXPECT_EQ(batch.labels, ref.labels);
    }
    const std::vector<Batch> shuffled = shuffled_batches();
    for (size_t b = 0; b < shuffled.size(); ++b) {
      ExpectBitIdentical(shuffled[b].images, shuffled_ref[b].images,
                         "shuffled loader images", threads);
      EXPECT_EQ(shuffled[b].labels, shuffled_ref[b].labels);
    }
    const Batch made = MakeBatch(*dataset, batch_size, batch_size);
    ExpectBitIdentical(made.images, reference[1].images, "MakeBatch",
                       threads);
    EXPECT_EQ(made.labels, reference[1].labels);
  }
}

TEST(ParallelDeterminismTest, AdamMatchesSerialUpdateAtAnyThreadCount) {
  ThreadCountGuard guard;
  const float lr = 0.01f, beta1 = 0.9f, beta2 = 0.999f, epsilon = 1e-8f;
  // 100003 elements make 7 chunks; 17 make one.
  const std::vector<Shape> shapes = {Shape({100003}), Shape({17})};
  Rng rng(101);
  std::vector<Tensor> init, grads[2];
  for (const Shape& shape : shapes) {
    init.push_back(Tensor::RandomGaussian(shape, &rng));
    for (std::vector<Tensor>& g : grads) {
      g.push_back(Tensor::RandomGaussian(shape, &rng));
    }
  }
  std::vector<Tensor> ref_params = init;
  for (size_t i = 0; i < shapes.size(); ++i) {
    Tensor m(shapes[i]), v(shapes[i]);
    for (int t = 1; t <= 2; ++t) {
      testutil::ReferenceAdamStep(lr, beta1, beta2, epsilon, t,
                                  grads[t - 1][i], &ref_params[i], &m, &v);
    }
  }
  for (const int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<Tensor> params = init;
    std::vector<Tensor*> param_ptrs = {&params[0], &params[1]};
    Adam adam(lr, beta1, beta2, epsilon);
    for (std::vector<Tensor>& g : grads) {
      adam.Step(param_ptrs, {&g[0], &g[1]});
    }
    for (size_t i = 0; i < params.size(); ++i) {
      ExpectBitIdentical(params[i], ref_params[i], "adam", threads);
    }
  }
}

// One training step of a small CifarNet, as TrainStep runs it (forward,
// loss, backward, Adam), with the input gradient kept: every pool pass of
// a dense step at once.
TEST(ParallelDeterminismTest, CifarNetTrainStepBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  ModelOptions options;
  options.num_classes = 10;
  options.input_size = 32;
  options.width = 0.25;
  options.fc_width = 0.1;
  options.seed = 7;
  Rng rng(111);
  const Tensor images = Tensor::RandomGaussian(Shape({32, 3, 32, 32}), &rng);
  std::vector<int> labels(32);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 10);
  }

  struct StepOutput {
    double loss = 0.0;
    Tensor grad_input;
    std::vector<Tensor> params;
  };
  const auto run = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    Result<Model> model = BuildModel("cifarnet", options);
    ADR_CHECK(model.ok());
    Network& network = model->network;
    Adam adam(0.002f);
    StepOutput out;
    const LossResult loss = SoftmaxCrossEntropy(
        network.Forward(images, /*training=*/true), labels);
    out.loss = loss.loss;
    out.grad_input = network.Backward(loss.grad_logits);
    adam.Step(network.Parameters(), network.Gradients());
    for (const Tensor* p : network.Parameters()) out.params.push_back(*p);
    return out;
  };
  const StepOutput reference = run(1);
  for (const int threads : kThreadCounts) {
    const StepOutput result = run(threads);
    EXPECT_EQ(std::memcmp(&result.loss, &reference.loss, sizeof(double)), 0)
        << "loss with " << threads << " threads";
    ExpectBitIdentical(result.grad_input, reference.grad_input, "grad_input",
                       threads);
    ASSERT_EQ(result.params.size(), reference.params.size());
    for (size_t i = 0; i < result.params.size(); ++i) {
      ExpectBitIdentical(result.params[i], reference.params[i], "parameter",
                         threads);
    }
  }
}

}  // namespace
}  // namespace adr
