// Ablation: the analytic complexity model (Eqs. 5, 12, 20) against the
// measured MAC counts of the implementation, across the {L, H} grid.
// Validates that the expected-time ordering Policy 3 relies on (Eqs. 22-23)
// holds for the real kernels.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/clustered_matmul.h"
#include "core/complexity_model.h"
#include "core/reuse_backward.h"
#include "tensor/im2col.h"
#include "util/csv_writer.h"
#include "util/rng.h"

namespace adr::bench {
namespace {

void Main() {
  std::printf("== Ablation: complexity model vs measured MACs ==\n");
  CsvWriter csv;
  const Status open = CsvWriter::Open(
      ResultsDir() + "/ablation_complexity.csv",
      {"L", "H", "rc", "fwd_model", "fwd_measured", "bwd_model",
       "bwd_measured"},
      &csv);
  ADR_CHECK(open.ok()) << open.ToString();

  // A synthetic unfolded matrix with strong row redundancy: prototypes +
  // noise, like a real activation map.
  const int64_t n = 4096, k = 400, m = 64;
  Rng rng(1);
  Tensor protos = Tensor::RandomGaussian(Shape({32, k}), &rng);
  Tensor x(Shape({n, k}));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t p = static_cast<int64_t>(rng.NextBounded(32));
    for (int64_t j = 0; j < k; ++j) {
      x.at(i, j) = protos.at(p, j) + 0.05f * rng.NextGaussian();
    }
  }
  Tensor w = Tensor::RandomGaussian(Shape({k, m}), &rng);
  Tensor dy = Tensor::RandomGaussian(Shape({n, m}), &rng);
  // The matrix goes through the convolution entries of both passes as n
  // one-row images.
  const ConvGeometry geo = MatrixGeometry(n, k);
  Tensor y(Shape({n, m}));
  Tensor grad_weight(Shape({k, m}));
  Tensor grad_bias(Shape({m}));
  Tensor grad_x(Shape({n, k}));

  PrintRow({"L", "H", "r_c", "fwd model", "fwd meas", "bwd model",
            "bwd meas"});
  for (int64_t l : {400L, 100L, 50L, 20L, 10L}) {
    for (int h : {4, 8, 16}) {
      auto families = BlockLshFamilies::Create(k, l, h, 99);
      ADR_CHECK(families.ok());
      StreamingSubVectorClusterer clusterer;
      ReuseClustering clustering;
      ReuseLayerStats forward;
      ClusteredForward(*families, geo, x.data(), w, nullptr, n, nullptr,
                       /*arena=*/nullptr, &clusterer, y.data(), &clustering,
                       &forward);
      ReuseLayerStats backward;
      ReuseBackwardInto(clustering, w, dy.data(), geo, /*arena=*/nullptr,
                        grad_weight.data(), grad_bias.data(), grad_x.data(),
                        &backward);

      ComplexityParams params;
      params.n = n;
      params.k = k;
      params.m = m;
      params.l = l;
      params.h = h;
      params.rc = forward.avg_remaining_ratio;

      const double fwd_measured = forward.macs_executed / forward.macs_baseline;
      const double bwd_measured =
          backward.macs_executed / backward.macs_baseline;
      const double fwd_model = ForwardRelativeCost(params);
      const double bwd_model = (WeightGradRelativeCost(params) +
                                InputDeltaRelativeCost(params)) /
                               2.0;
      PrintRow({std::to_string(l), std::to_string(h), Fmt(params.rc, 3),
                Fmt(fwd_model, 3), Fmt(fwd_measured, 3), Fmt(bwd_model, 3),
                Fmt(bwd_measured, 3)});
      csv.WriteRow(std::vector<double>{
          static_cast<double>(l), static_cast<double>(h), params.rc,
          fwd_model, fwd_measured, bwd_model, bwd_measured});
    }
  }
  csv.Close();
  std::printf("\nModel and measurement should agree closely (both count\n");
  std::printf("the same hash/GEMM/add terms); deviations indicate the\n");
  std::printf("implementation diverging from Eqs. 5/12/20.\n");
  std::printf("CSV written to %s/ablation_complexity.csv\n",
              ResultsDir().c_str());
}

}  // namespace
}  // namespace adr::bench

int main() {
  adr::bench::Main();
  return 0;
}
