// Figure 7 reproduction: the r_c-accuracy relationship of k-means
// clustering applied to the neuron vectors of a single convolutional layer
// of a trained model, at single-input and single-batch clustering scopes.
//
// Paper reference points (full-scale): CifarNet conv1 recovers ~0.76 of
// its 0.81 accuracy at r_c = 0.5 (single-input); AlexNet conv3 recovers
// its original accuracy at r_c ~ 0.5 (single-input) / ~0.15 (single-batch),
// and the single-batch curve dominates the single-input curve.
//
// Our substrate is a scaled model on the synthetic dataset (see DESIGN.md),
// so absolute accuracies differ; the claims checked here are the *shapes*:
// accuracy rises with r_c, approaches the dense accuracy well before
// r_c = 1, and batch-scope clustering needs a smaller r_c than input-scope.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "clustering/kmeans.h"
#include "core/reuse_conv2d.h"
#include "nn/loss.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "util/csv_writer.h"

namespace adr::bench {
namespace {

constexpr int kKMeansIterations = 5;
constexpr uint64_t kKMeansSeed = 7;

// Eval-mode forward of `layer` with k-means clustering of whole unfolded
// rows (Fig. 7 clusters at L = K, one column block): im2col, one k-means
// per scope group, centroids over the merged assignment, one GEMM over
// the centroids, each row's centroid output added into a zeroed y, then
// the bias. This is the op sequence of the library's clustered forward on
// an uncached block, with k-means in place of LSH. Returns the NCHW
// output; *rc is this batch's |C| / N.
Tensor KMeansForward(ReuseConv2d* layer, const Tensor& input,
                     ClusterScope scope, int64_t clusters, double* rc) {
  const int64_t batch = input.shape()[0];
  const ConvGeometry geo = layer->Geometry(batch);
  const int64_t n = geo.unfolded_rows();
  const int64_t k = geo.unfolded_cols();
  const int64_t m = layer->config().out_channels;
  const int64_t rows_per_group =
      scope == ClusterScope::kSingleInput ? geo.rows_per_image() : n;

  Tensor cols(Shape({n, k}));
  Im2Col(geo, input, &cols);
  Clustering merged;
  merged.assignment.resize(static_cast<size_t>(n));
  for (int64_t group_start = 0; group_start < n;
       group_start += rows_per_group) {
    KMeansOptions options;
    options.num_clusters = std::min(clusters, rows_per_group);
    options.max_iterations = kKMeansIterations;
    options.seed = kKMeansSeed + static_cast<uint64_t>(group_start);
    const Result<KMeansResult> kmeans =
        KMeans(cols.data() + group_start * k, rows_per_group, k, k, options);
    ADR_CHECK(kmeans.ok()) << kmeans.status().ToString();
    const int32_t id_offset =
        static_cast<int32_t>(merged.cluster_sizes.size());
    for (int64_t i = 0; i < rows_per_group; ++i) {
      merged.assignment[static_cast<size_t>(group_start + i)] =
          id_offset + kmeans->clustering.assignment[static_cast<size_t>(i)];
    }
    merged.cluster_sizes.insert(merged.cluster_sizes.end(),
                                kmeans->clustering.cluster_sizes.begin(),
                                kmeans->clustering.cluster_sizes.end());
  }
  const Tensor centroids = ComputeCentroids(cols.data(), n, k, k, merged);
  const int64_t num_clusters = merged.num_clusters();
  *rc = merged.remaining_ratio();

  Tensor yc(Shape({num_clusters, m}));
  Gemm(centroids.data(), layer->weight().data(), yc.data(), num_clusters, k,
       m);
  Tensor y(Shape({n, m}));
  const simd::Kernels& kernels = simd::Active();
  for (int64_t i = 0; i < n; ++i) {
    kernels.add(yc.data() + merged.assignment[static_cast<size_t>(i)] * m,
                y.data() + i * m, m);
  }
  Tensor out(Shape({batch, m, geo.out_height(), geo.out_width()}));
  RowsToNchw(y.data(), layer->bias().data(), batch, m, geo.out_height(),
             geo.out_width(), out.data());
  return out;
}

// Accuracy of `network` over the first `max_samples` samples (whole
// batches only, as EvaluateAccuracy counts them) with layer `studied`
// computed by KMeansForward; the others run their own eval forward.
// *rc is the mean of the per-batch r_c.
double EvaluateWithKMeansLayer(Network* network, ReuseConv2d* studied,
                               const Dataset& dataset, int64_t batch_size,
                               int64_t max_samples, ClusterScope scope,
                               int64_t clusters, double* rc) {
  const int64_t total = std::min(max_samples, dataset.size());
  int64_t correct = 0;
  int64_t seen = 0;
  int64_t batches = 0;
  *rc = 0.0;
  for (int64_t start = 0; start + batch_size <= total; start += batch_size) {
    const Batch batch = MakeBatch(dataset, start, batch_size);
    Tensor current = batch.images;
    for (size_t i = 0; i < network->num_layers(); ++i) {
      Layer* layer = network->layer(i);
      if (layer != studied) {
        current = layer->Forward(current, /*training=*/false);
        continue;
      }
      double batch_rc = 0.0;
      current = KMeansForward(studied, current, scope, clusters, &batch_rc);
      // Running mean, in the order ReuseLayerStats::Add folds it.
      *rc = (*rc * static_cast<double>(batches) + batch_rc) /
            static_cast<double>(batches + 1);
      ++batches;
    }
    correct += SoftmaxCrossEntropy(current, batch.labels).num_correct;
    seen += batch.size();
  }
  ADR_CHECK_GT(seen, 0) << "batch_size larger than evaluation set";
  return static_cast<double>(correct) / static_cast<double>(seen);
}

void RunLayerSweep(const std::string& title, const TrainedContext& context,
                   size_t layer_index, int64_t batch_size,
                   const std::vector<int64_t>& cluster_counts,
                   CsvWriter* csv) {
  std::printf("\n%s (dense accuracy %.3f)\n", title.c_str(),
              context.baseline_accuracy);
  PrintRow({"scope", "clusters", "r_c", "accuracy"});

  // Every layer of the twin stays dense; the studied one is computed by
  // KMeansForward instead of its own Forward.
  Model twin = MakeReuseTwin(context, ExactReuseConfig());
  ReuseConv2d* layer = twin.reuse_layers[layer_index];
  for (const ClusterScope scope :
       {ClusterScope::kSingleInput, ClusterScope::kSingleBatch}) {
    for (int64_t clusters : cluster_counts) {
      double rc = 0.0;
      const double accuracy = EvaluateWithKMeansLayer(
          &twin.network, layer, context.dataset, batch_size, Scaled(96),
          scope, clusters, &rc);
      PrintRow({std::string(ClusterScopeToString(scope)),
                std::to_string(clusters), Fmt(rc), Fmt(accuracy, 3)});
      if (csv != nullptr) {
        csv->WriteRow(std::vector<std::string>{
            title, std::string(ClusterScopeToString(scope)),
            std::to_string(clusters), Fmt(rc, 6), Fmt(accuracy, 6)});
      }
    }
  }
}

void Main() {
  std::printf("== Fig. 7: k-means similarity verification ==\n");
  std::printf("(scaled models on the synthetic dataset; see DESIGN.md)\n");

  CsvWriter csv;
  const Status open = CsvWriter::Open(
      ResultsDir() + "/fig7_kmeans_similarity.csv",
      {"experiment", "scope", "clusters", "rc", "accuracy"}, &csv);
  ADR_CHECK(open.ok()) << open.ToString();

  // (a) CifarNet conv1.
  {
    TrainSpec spec;
    spec.model_name = "cifarnet";
    spec.model_options.num_classes = 10;
    spec.model_options.input_size = 16;
    spec.model_options.width = 0.25;
    spec.model_options.fc_width = 0.1;
    spec.data_config = HardTask(16, 512, 7);
    spec.train_steps = Scaled(300);
    spec.batch_size = 8;
    const TrainedContext context = TrainBaseline(spec);
    // Rows per image: 16*16 = 256; per batch: 2048.
    RunLayerSweep("CifarNet conv1", context, /*layer_index=*/0,
                  /*batch_size=*/8, {4, 16, 64, 128, 256}, &csv);
  }

  // (b) AlexNet conv3.
  {
    TrainSpec spec;
    spec.model_name = "alexnet";
    spec.model_options.num_classes = 10;
    spec.model_options.input_size = 115;
    spec.model_options.width = 0.125;
    spec.model_options.fc_width = 0.02;
    spec.data_config = HardTask(115, 256, 9);
    spec.data_config.structured_noise = 0.8f;
    spec.train_steps = Scaled(250);
    spec.batch_size = 4;
    spec.eval_samples = 64;
    const TrainedContext context = TrainBaseline(spec);
    // conv3's map is 6x6: 36 rows per image, 144 per batch of 4.
    RunLayerSweep("AlexNet conv3", context, /*layer_index=*/2,
                  /*batch_size=*/4, {2, 4, 8, 18, 36}, &csv);
  }

  csv.Close();
  std::printf("\nCSV written to %s/fig7_kmeans_similarity.csv\n",
              ResultsDir().c_str());
}

}  // namespace
}  // namespace adr::bench

int main() {
  adr::bench::Main();
  return 0;
}
