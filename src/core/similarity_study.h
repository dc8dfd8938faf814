// Library form of the paper's similarity studies (Section VI-A/B1): given
// a trained dense model, quantify the r_c-accuracy trade-off of one conv
// layer under LSH or k-means clustering. Applications can run these
// studies on their own models to pick {L, H} settings. The fig7/fig8
// benches do not call them: they run their own sweeps over the paper's
// models and write CSV tables.

#ifndef ADR_CORE_SIMILARITY_STUDY_H_
#define ADR_CORE_SIMILARITY_STUDY_H_

#include <cstdint>
#include <vector>

#include "core/reuse_config.h"
#include "data/dataset.h"
#include "models/models.h"
#include "util/result.h"

namespace adr {

/// \brief One measured point of a similarity study.
struct SimilarityPoint {
  ReuseConfig config;           ///< the configuration measured
  double remaining_ratio = 0.0; ///< observed average r_c
  double accuracy = 0.0;        ///< inference accuracy with this config
  double macs_saved = 0.0;      ///< fraction of the layer's MACs avoided
};

/// \brief Common options of both studies.
struct SimilarityStudyOptions {
  size_t layer_index = 0;    ///< which conv layer to study
  int64_t batch_size = 8;
  int64_t eval_samples = 96; ///< samples per accuracy measurement
};

/// \brief Measures every (L, H) combination on one layer, holding all
/// other layers exact. `dense` must be a baseline-mode model trained on
/// (or at least compatible with) `dataset`; `model_options` are the
/// options it was built with.
///
/// Returns InvalidArgument when layer_index is out of range or a config
/// does not validate against the layer's K.
Result<std::vector<SimilarityPoint>> LshSimilarityStudy(
    const Model& dense, const ModelOptions& model_options,
    const Dataset& dataset, const SimilarityStudyOptions& options,
    const std::vector<int64_t>& l_values, const std::vector<int>& h_values);

/// \brief Measures k-means clustering (the Fig. 7 upper-bound study) at
/// the given cluster counts under the given scope.
Result<std::vector<SimilarityPoint>> KMeansSimilarityStudy(
    const Model& dense, const ModelOptions& model_options,
    const Dataset& dataset, const SimilarityStudyOptions& options,
    ClusterScope scope, const std::vector<int64_t>& cluster_counts);

}  // namespace adr

#endif  // ADR_CORE_SIMILARITY_STUDY_H_
