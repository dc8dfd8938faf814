#include "core/strategies.h"

#include <memory>

#include "data/dataloader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/metrics_registry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace adr {

std::string_view StrategyKindToString(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kBaseline:
      return "baseline";
    case StrategyKind::kFixed:
      return "strategy1-fixed";
    case StrategyKind::kAdaptive:
      return "strategy2-adaptive";
    case StrategyKind::kClusterReuse:
      return "strategy3-cluster-reuse";
  }
  return "?";
}

Result<TrainingRunResult> RunTrainingStrategy(
    StrategyKind kind, const std::string& model_name,
    const ModelOptions& model_options, const Dataset& dataset,
    const TrainingRunOptions& options) {
  if (options.batch_size <= 0 || options.max_steps <= 0 ||
      options.eval_every <= 0) {
    return Status::InvalidArgument("training run options must be positive");
  }
  ADR_TRACE_SPAN("RunTrainingStrategy");

  ModelOptions build_options = model_options;
  build_options.use_reuse = kind != StrategyKind::kBaseline;
  if (kind == StrategyKind::kFixed || kind == StrategyKind::kClusterReuse) {
    ADR_ASSIGN_OR_RETURN(
        build_options.reuse,
        ReuseConfigBuilder(options.fixed_reuse)
            .ClusterReuse(kind == StrategyKind::kClusterReuse)
            .Build());
  }
  ADR_ASSIGN_OR_RETURN(Model model, BuildModel(model_name, build_options));

  std::unique_ptr<Optimizer> optimizer;
  if (options.optimizer == OptimizerKind::kAdam) {
    optimizer = std::make_unique<Adam>(options.learning_rate);
  } else {
    optimizer =
        std::make_unique<MomentumSgd>(options.learning_rate, options.momentum);
  }
  DataLoader loader(&dataset, options.batch_size, /*shuffle=*/true,
                    options.seed);

  // Strategy 2: controller over the reuse layers; its probe evaluates a
  // fixed batch (the paper probes one batch of inputs).
  std::unique_ptr<AdaptiveController> controller;
  Batch probe_batch;
  if (kind == StrategyKind::kAdaptive) {
    controller = std::make_unique<AdaptiveController>(
        model.reuse_layers, options.batch_size, options.adaptive);
    ADR_RETURN_NOT_OK(controller->Init());
    probe_batch = MakeBatch(
        dataset, 0, std::min<int64_t>(options.batch_size, dataset.size()));
  }

  // Strategy 3: plateau detector controlling the CR flag.
  PlateauDetector cr_plateau(options.adaptive.plateau_window,
                             options.adaptive.plateau_min_rel_improvement);
  bool cluster_reuse_active = kind == StrategyKind::kClusterReuse;

  TrainingRunResult result;
  result.strategy = kind;
  Timer timer;
  Batch batch;
  int64_t num_eval_batches = 0;  // forward-only passes, for MAC accounting

  for (int64_t step = 0; step < options.max_steps; ++step) {
    loader.Next(&batch);
    const StepResult train = TrainStep(&model.network, optimizer.get(), batch);
    result.loss_history.push_back(train.loss);
    ++result.steps_run;

    if (kind == StrategyKind::kAdaptive && !controller->Exhausted()) {
      const bool advanced = controller->Step(
          train.loss, train.accuracy, [&]() {
            return EvaluateBatch(&model.network, probe_batch).accuracy;
          });
      if (advanced) {
        result.stages_used = controller->stage() + 1;
      }
    } else if (kind == StrategyKind::kClusterReuse &&
               cluster_reuse_active) {
      if (cr_plateau.Observe(train.loss)) {
        ADR_LOG(Info) << "strategy 3: disabling cluster reuse at step "
                      << step;
        for (ReuseConv2d* layer : model.reuse_layers) {
          const Status status =
              layer->SetReuseConfig(ReuseConfigBuilder(layer->reuse_config())
                                        .ClusterReuse(false)
                                        .BuildUnchecked());
          ADR_CHECK(status.ok()) << status.ToString();
        }
        cluster_reuse_active = false;
      }
    }

    if ((step + 1) % options.eval_every == 0) {
      num_eval_batches += options.eval_samples / options.batch_size;
      const double accuracy =
          EvaluateAccuracy(&model.network, dataset, options.batch_size,
                           options.eval_samples);
      result.eval_history.emplace_back(step + 1, accuracy);
      result.final_accuracy = accuracy;
      if (accuracy >= options.target_accuracy) {
        result.reached_target = true;
        break;
      }
    }
  }
  result.wall_seconds = timer.ElapsedSeconds();

  // Conv-layer MAC accounting.
  if (kind == StrategyKind::kBaseline) {
    // A training step runs the forward, dW, and dX where the layer
    // computes it (not for the first layer); an eval batch the forward.
    double per_step = 0.0;
    double per_eval = 0.0;
    for (Conv2d* conv : model.conv_layers) {
      const double forward = conv->ForwardMacs(options.batch_size);
      per_step += (conv->needs_input_grad() ? 3.0 : 2.0) * forward;
      per_eval += forward;
    }
    result.conv_macs_executed =
        per_step * static_cast<double>(result.steps_run) +
        per_eval * static_cast<double>(num_eval_batches);
    result.conv_macs_baseline = result.conv_macs_executed;
  } else {
    for (ReuseConv2d* layer : model.reuse_layers) {
      const ReuseLayerStats& stats = *layer->GetReuseStats();
      result.conv_macs_executed += stats.macs_executed;
      result.conv_macs_baseline += stats.macs_baseline;
      result.final_reuse_rate = stats.last_batch_reuse_rate;
    }
  }

  const std::string prefix =
      "run/" + std::string(StrategyKindToString(kind)) + "/";
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.counter(prefix + "runs")->Increment();
  metrics.gauge(prefix + "final_accuracy")->Set(result.final_accuracy);
  metrics.gauge(prefix + "wall_seconds")->Set(result.wall_seconds);
  metrics.gauge(prefix + "macs_saved_fraction")
      ->Set(result.MacsSavedFraction());
  return result;
}

}  // namespace adr
