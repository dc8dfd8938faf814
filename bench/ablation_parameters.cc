// Ablation of the Section V observations that motivate the adaptive
// strategy:
//   (1) at fixed H, smaller L gives smaller reuse-caused accuracy loss;
//   (2) at fixed L, larger H gives higher accuracy but larger r_c;
//   (3) layers close to the output tolerate larger L than early layers;
//   (4) the backward-reuse approximation vs exact backward (our extra
//       ablation knob, exact_backward);
//   (5) plateau-detector sensitivity (window/threshold), our formalization
//       of "the loss stops decreasing".

#include <cstdio>

#include "bench/bench_util.h"
#include "core/adaptive_controller.h"
#include "core/strategies.h"
#include "util/csv_writer.h"

namespace adr::bench {
namespace {

TrainSpec CifarSpec() {
  TrainSpec spec;
  spec.model_name = "cifarnet";
  spec.model_options.num_classes = 10;
  spec.model_options.input_size = 16;
  spec.model_options.width = 0.25;
  spec.model_options.fc_width = 0.1;
  spec.data_config = HardTask(16, 512, 61);
  spec.train_steps = Scaled(300);
  spec.batch_size = 8;
  return spec;
}

double EvalLayerConfig(const TrainedContext& context, size_t layer_index,
                       const ReuseConfig& config, double* rc_out) {
  Model twin = MakeReuseTwin(context, ExactReuseConfig());
  ReuseConv2d* layer = twin.reuse_layers[layer_index];
  const Status status = layer->SetReuseConfig(config);
  ADR_CHECK(status.ok()) << status.ToString();
  const double accuracy =
      EvaluateAccuracy(&twin.network, context.dataset, 8, Scaled(96));
  if (rc_out != nullptr) *rc_out = layer->GetReuseStats()->avg_remaining_ratio;
  return accuracy;
}

void ObservationOneAndTwo(const TrainedContext& context, CsvWriter* csv) {
  std::printf("\n(1)+(2) accuracy and r_c across the {L, H} grid, conv2:\n");
  PrintRow({"L", "H", "r_c", "accuracy"});
  for (int64_t l : {400L, 50L, 10L}) {
    for (int h : {4, 10, 16}) {
      const ReuseConfig config = ReuseConfigBuilder()
                                     .SubVectorLength(l)
                                     .NumHashes(h)
                                     .BuildUnchecked();
      double rc = 0.0;
      const double accuracy = EvalLayerConfig(context, 1, config, &rc);
      PrintRow({std::to_string(l), std::to_string(h), Fmt(rc, 3),
                Fmt(accuracy, 3)});
      csv->WriteRow(std::vector<std::string>{
          "grid_conv2", std::to_string(l), std::to_string(h), Fmt(rc, 6),
          Fmt(accuracy, 6)});
    }
  }
}

void ObservationThree(const TrainedContext& context, CsvWriter* csv) {
  std::printf(
      "\n(3) same coarse config applied to conv1 (early) vs conv2 "
      "(late):\n");
  PrintRow({"layer", "L", "H", "r_c", "accuracy"});
  for (size_t layer_index : {size_t{0}, size_t{1}}) {
    // A deliberately coarse setting; conv1 K = 75, conv2 K = 400. Use the
    // whole row for both so the comparison is "coarsest possible".
    const ReuseConfig config =
        ReuseConfigBuilder().SubVectorLength(0).NumHashes(6).BuildUnchecked();
    double rc = 0.0;
    const double accuracy =
        EvalLayerConfig(context, layer_index, config, &rc);
    const std::string name = layer_index == 0 ? "conv1" : "conv2";
    PrintRow({name, "K", "6", Fmt(rc, 3), Fmt(accuracy, 3)});
    csv->WriteRow(std::vector<std::string>{"layer_depth_" + name, "K", "6",
                                           Fmt(rc, 6), Fmt(accuracy, 6)});
  }
  std::printf("(the later layer should lose less accuracy)\n");
}

void ObservationFour(CsvWriter* csv) {
  std::printf("\n(4) approximate vs exact backward during training:\n");
  TrainSpec spec = CifarSpec();
  auto dataset = SyntheticImageDataset::Create(spec.data_config);
  ADR_CHECK(dataset.ok());

  PrintRow({"backward", "steps", "accuracy", "MACs saved"});
  for (const bool exact : {false, true}) {
    ModelOptions options = spec.model_options;
    options.use_reuse = true;
    options.reuse.sub_vector_length = 25;
    options.reuse.num_hashes = 12;
    auto model = BuildModel("cifarnet", options);
    ADR_CHECK(model.ok());
    for (ReuseConv2d* layer : model->reuse_layers) {
      layer->set_exact_backward(exact);
    }
    DataLoader loader(&*dataset, 16, true, 77);
    Adam optimizer(0.002f);
    Batch batch;
    const int64_t steps = Scaled(200);
    for (int64_t step = 0; step < steps; ++step) {
      loader.Next(&batch);
      TrainStep(&model->network, &optimizer, batch);
    }
    const double accuracy =
        EvaluateAccuracy(&model->network, *dataset, 16, 128);
    double executed = 0.0, baseline = 0.0;
    for (ReuseConv2d* layer : model->reuse_layers) {
      executed += layer->GetReuseStats()->macs_executed;
      baseline += layer->GetReuseStats()->macs_baseline;
    }
    const double saved = 1.0 - executed / baseline;
    PrintRow({exact ? "exact" : "reused-clustering",
              std::to_string(steps), Fmt(accuracy, 3),
              Fmt(saved * 100.0, 1) + "%"});
    csv->WriteRow(std::vector<std::string>{
        exact ? "backward_exact" : "backward_reuse", "-", "-",
        Fmt(saved, 6), Fmt(accuracy, 6)});
  }
  std::printf(
      "(clustering reuse in backward should cost little accuracy while\n"
      " saving the 2/3 of MACs the backward pass accounts for)\n");
}

void ObservationFive(CsvWriter* csv) {
  std::printf("\n(5) plateau-detector sensitivity (Strategy 2):\n");
  TrainSpec spec = CifarSpec();
  auto dataset = SyntheticImageDataset::Create(spec.data_config);
  ADR_CHECK(dataset.ok());
  PrintRow({"window", "threshold", "steps", "accuracy", "stages",
            "MACs saved"});
  for (const int window : {5, 10, 20}) {
    TrainingRunOptions run;
    run.batch_size = 16;
    run.learning_rate = 0.002f;
    run.target_accuracy = 0.9;
    run.max_steps = Scaled(300);
    run.eval_every = 20;
    run.eval_samples = 128;
    run.adaptive.plateau_window = window;
    run.adaptive.min_steps_per_stage = 2 * window;
    auto result = RunTrainingStrategy(StrategyKind::kAdaptive, "cifarnet",
                                      spec.model_options, *dataset, run);
    ADR_CHECK(result.ok()) << result.status().ToString();
    PrintRow({std::to_string(window),
              Fmt(run.adaptive.plateau_min_rel_improvement, 3),
              std::to_string(result->steps_run),
              Fmt(result->final_accuracy, 3),
              std::to_string(result->stages_used),
              Fmt(result->MacsSavedFraction() * 100.0, 1) + "%"});
    csv->WriteRow(std::vector<std::string>{
        "plateau_w" + std::to_string(window), "-", "-",
        Fmt(result->MacsSavedFraction(), 6),
        Fmt(result->final_accuracy, 6)});
  }
}

void Main() {
  std::printf("== Ablation: Section V parameter observations ==\n");
  CsvWriter csv;
  const Status open = CsvWriter::Open(
      ResultsDir() + "/ablation_parameters.csv",
      {"experiment", "L", "H", "rc_or_saved", "accuracy"}, &csv);
  ADR_CHECK(open.ok()) << open.ToString();

  const TrainedContext context = TrainBaseline(CifarSpec());
  std::printf("dense accuracy: %.3f\n", context.baseline_accuracy);

  ObservationOneAndTwo(context, &csv);
  ObservationThree(context, &csv);
  ObservationFour(&csv);
  ObservationFive(&csv);
  csv.Close();
  std::printf("\nCSV written to %s/ablation_parameters.csv\n",
              ResultsDir().c_str());
}

}  // namespace
}  // namespace adr::bench

int main() {
  adr::bench::Main();
  return 0;
}
