// ReuseConfig: the three clustering knobs of adaptive deep reuse
// (paper Section V): sub-vector length L, number of hash functions H, and
// the cluster-reuse flag CR, plus the clustering scope of Section III-B.

#ifndef ADR_CORE_REUSE_CONFIG_H_
#define ADR_CORE_REUSE_CONFIG_H_

#include <cstdint>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace adr {

/// \brief Pool over which neuron vectors are clustered (Section III-B,
/// "Cluster Scope").
enum class ClusterScope : int {
  kSingleInput = 0,  ///< cluster the rows of each input image separately
  kSingleBatch = 1,  ///< cluster all rows of a batch together (default)
  kAcrossBatch = 2,  ///< single-batch clustering + cross-batch cluster reuse
};

std::string_view ClusterScopeToString(ClusterScope scope);

/// \brief Clustering parameters of one reuse-enabled convolutional layer.
struct ReuseConfig {
  /// When false the layer computes the exact dense convolution (forward
  /// and backward) — used to hold other layers exact while one layer is
  /// studied, and as a per-layer off switch in deployments.
  bool enabled = true;
  /// Sub-vector length L. 0 means "use the whole row" (L = K).
  int64_t sub_vector_length = 0;
  /// Number of LSH hash functions H (1..kMaxLshHashes).
  int num_hashes = 12;
  /// Cluster reuse flag CR (Algorithm 1). Implied true when scope is
  /// kAcrossBatch.
  bool cluster_reuse = false;
  ClusterScope scope = ClusterScope::kSingleBatch;
  /// Seed for the LSH hyperplane family. The family is regenerated only
  /// when (L, H, seed) changes, so signatures stay comparable across
  /// batches, as cluster reuse requires.
  uint64_t seed = 7;

  /// \brief Effective L for an unfolded matrix with K columns.
  int64_t EffectiveLength(int64_t k) const {
    return sub_vector_length <= 0 || sub_vector_length > k ? k
                                                           : sub_vector_length;
  }

  bool ClusterReuseEnabled() const {
    return cluster_reuse || scope == ClusterScope::kAcrossBatch;
  }

  /// \brief Validates every constraint that does not depend on layer
  /// geometry (L >= 0, hash count range). The single validation path:
  /// Validate(k) and every construction site build on this.
  Status Validate() const;

  /// \brief Validates against the layer's unfolded width K (everything in
  /// Validate() plus the L <= K geometry constraints).
  Status Validate(int64_t k) const;

  std::string ToString() const;

  bool operator==(const ReuseConfig& other) const = default;
};

/// \brief Fluent construction of ReuseConfig with validation at the end:
///
///   ADR_ASSIGN_OR_RETURN(ReuseConfig config,
///                        ReuseConfigBuilder()
///                            .SubVectorLength(25)
///                            .NumHashes(12)
///                            .ClusterReuse(false)
///                            .Build());
///
/// Build() runs the geometry-independent checks; Build(k) additionally
/// checks against a layer's unfolded width. Start from an existing config
/// with ReuseConfigBuilder(base) to tweak one knob (how the adaptive
/// strategies flip CR between batches).
class ReuseConfigBuilder {
 public:
  ReuseConfigBuilder() = default;
  explicit ReuseConfigBuilder(const ReuseConfig& base) : config_(base) {}

  ReuseConfigBuilder& Enabled(bool enabled) {
    config_.enabled = enabled;
    return *this;
  }
  ReuseConfigBuilder& SubVectorLength(int64_t l) {
    config_.sub_vector_length = l;
    return *this;
  }
  ReuseConfigBuilder& NumHashes(int h) {
    config_.num_hashes = h;
    return *this;
  }
  ReuseConfigBuilder& ClusterReuse(bool cr) {
    config_.cluster_reuse = cr;
    return *this;
  }
  ReuseConfigBuilder& Scope(ClusterScope scope) {
    config_.scope = scope;
    return *this;
  }
  ReuseConfigBuilder& Seed(uint64_t seed) {
    config_.seed = seed;
    return *this;
  }

  /// \brief Validated build (geometry-independent checks only).
  Result<ReuseConfig> Build() const;

  /// \brief Validated build against a layer's unfolded width K.
  Result<ReuseConfig> Build(int64_t k) const;

  /// \brief The raw config without validation — for call sites that
  /// validate later anyway (layer construction, SetReuseConfig).
  const ReuseConfig& BuildUnchecked() const { return config_; }

 private:
  ReuseConfig config_;
};

}  // namespace adr

#endif  // ADR_CORE_REUSE_CONFIG_H_
