// Figure 8 reproduction: the r_c-accuracy relationship of LSH clustering
// on conv2 of CifarNet, AlexNet and VGG-19 — one curve per sub-vector
// length L, one point per number of hash functions H.
//
// Paper claims checked (shape, not absolute values):
//  - LSH recovers the dense accuracy at a small r_c;
//  - at equal r_c, smaller L gives higher accuracy;
//  - for fixed L, larger H gives higher accuracy and larger r_c.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/parameter_schedule.h"
#include "core/reuse_conv2d.h"
#include "util/csv_writer.h"

namespace adr::bench {
namespace {

void RunSweep(const std::string& title, const TrainedContext& context,
              size_t layer_index, int64_t batch_size, int64_t eval_samples,
              const std::vector<int>& h_values, CsvWriter* csv) {
  Model twin = MakeReuseTwin(context, ExactReuseConfig());
  ReuseConv2d* layer = twin.reuse_layers[layer_index];
  const int64_t k = layer->unfolded_cols();
  // Curves: whole-row plus the divisors of K spread over its range, the
  // same presentation as the paper's figure.
  std::vector<int64_t> l_values = CandidateLValues(
      k, /*l_min=*/layer->config().kernel, /*l_max=*/k);
  if (l_values.size() > 7) {
    // Thin to ~7 curves, keeping the extremes.
    std::vector<int64_t> thinned;
    const double stride =
        static_cast<double>(l_values.size() - 1) / 6.0;
    for (int i = 0; i < 7; ++i) {
      thinned.push_back(l_values[static_cast<size_t>(i * stride)]);
    }
    thinned.back() = l_values.back();
    l_values = thinned;
  }

  std::printf("\n%s: K=%lld, dense accuracy %.3f\n", title.c_str(),
              static_cast<long long>(k), context.baseline_accuracy);
  PrintRow({"L", "H", "r_c", "accuracy"});
  for (int64_t l : l_values) {
    for (int h : h_values) {
      const ReuseConfig config = ReuseConfigBuilder()
                                     .SubVectorLength(l)
                                     .NumHashes(h)
                                     .BuildUnchecked();
      const Status status = layer->SetReuseConfig(config);
      ADR_CHECK(status.ok()) << status.ToString();
      layer->ResetReuseStats();
      const double accuracy = EvaluateAccuracy(
          &twin.network, context.dataset, batch_size, eval_samples);
      const double rc = layer->GetReuseStats()->avg_remaining_ratio;
      PrintRow({std::to_string(l), std::to_string(h), Fmt(rc),
                Fmt(accuracy, 3)});
      if (csv != nullptr) {
        csv->WriteRow(std::vector<std::string>{
            title, std::to_string(l), std::to_string(h), Fmt(rc, 6),
            Fmt(accuracy, 6)});
      }
    }
  }
}

void Main() {
  std::printf("== Fig. 8: LSH r_c-accuracy sweep on conv2 ==\n");
  CsvWriter csv;
  const Status open =
      CsvWriter::Open(ResultsDir() + "/fig8_lsh_sweep.csv",
                      {"experiment", "L", "H", "rc", "accuracy"}, &csv);
  ADR_CHECK(open.ok()) << open.ToString();
  const std::vector<int> h_values = {2, 4, 8, 12, 16, 24};

  {
    TrainSpec spec;
    spec.model_name = "cifarnet";
    spec.model_options.num_classes = 10;
    spec.model_options.input_size = 16;
    spec.model_options.width = 0.25;
    spec.model_options.fc_width = 0.1;
    spec.data_config = HardTask(16, 512, 17);
    spec.train_steps = Scaled(300);
    spec.batch_size = 8;
    const TrainedContext context = TrainBaseline(spec);
    RunSweep("CifarNet conv2", context, 1, 8, Scaled(96), h_values, &csv);
  }
  {
    TrainSpec spec;
    spec.model_name = "alexnet";
    spec.model_options.num_classes = 10;
    spec.model_options.input_size = 115;
    spec.model_options.width = 0.125;
    spec.model_options.fc_width = 0.02;
    spec.data_config = HardTask(115, 256, 19);
    spec.data_config.structured_noise = 0.8f;
    spec.train_steps = Scaled(250);
    spec.batch_size = 4;
    spec.eval_samples = 64;
    const TrainedContext context = TrainBaseline(spec);
    RunSweep("AlexNet conv2", context, 1, 4, Scaled(64), h_values, &csv);
  }
  {
    TrainSpec spec;
    spec.model_name = "vgg19";
    spec.model_options.num_classes = 10;
    spec.model_options.input_size = 32;
    spec.model_options.width = 0.125;
    spec.model_options.fc_width = 0.05;
    // The 16-layer stack needs BN to train at this scale (DESIGN.md).
    spec.model_options.batch_norm = true;
    spec.data_config = HardTask(32, 512, 23);
    spec.data_config.structured_noise = 0.6f;
    spec.train_steps = Scaled(400);
    spec.batch_size = 8;
    spec.eval_samples = 64;
    const TrainedContext context = TrainBaseline(spec);
    RunSweep("VGG-19 conv2", context, 1, 8, Scaled(64), h_values, &csv);
  }

  csv.Close();
  std::printf("\nCSV written to %s/fig8_lsh_sweep.csv\n",
              ResultsDir().c_str());
}

}  // namespace
}  // namespace adr::bench

int main() {
  adr::bench::Main();
  return 0;
}
