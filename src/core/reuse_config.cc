#include "core/reuse_config.h"

#include "clustering/lsh.h"

namespace adr {

std::string_view ClusterScopeToString(ClusterScope scope) {
  switch (scope) {
    case ClusterScope::kSingleInput:
      return "single-input";
    case ClusterScope::kSingleBatch:
      return "single-batch";
    case ClusterScope::kAcrossBatch:
      return "across-batch";
  }
  return "?";
}

Status ReuseConfig::Validate() const {
  if (sub_vector_length < 0) {
    return Status::InvalidArgument("sub_vector_length must be >= 0");
  }
  if (num_hashes < 1 || num_hashes > kMaxLshHashes) {
    return Status::InvalidArgument(
        "num_hashes must be in [1, " + std::to_string(kMaxLshHashes) +
        "], got " + std::to_string(num_hashes));
  }
  return Status::OK();
}

Status ReuseConfig::Validate(int64_t k) const {
  if (k <= 0) {
    return Status::InvalidArgument("K must be > 0");
  }
  ADR_RETURN_NOT_OK(Validate());
  if (sub_vector_length > k) {
    return Status::InvalidArgument(
        "sub_vector_length " + std::to_string(sub_vector_length) +
        " exceeds K = " + std::to_string(k));
  }
  return Status::OK();
}

Result<ReuseConfig> ReuseConfigBuilder::Build() const {
  ADR_RETURN_NOT_OK(config_.Validate());
  return config_;
}

Result<ReuseConfig> ReuseConfigBuilder::Build(int64_t k) const {
  ADR_RETURN_NOT_OK(config_.Validate(k));
  return config_;
}

std::string ReuseConfig::ToString() const {
  std::string out = "{L=";
  out += sub_vector_length <= 0 ? "K" : std::to_string(sub_vector_length);
  out += ", H=" + std::to_string(num_hashes);
  out += ", CR=" + std::to_string(ClusterReuseEnabled() ? 1 : 0);
  out += ", scope=";
  out += ClusterScopeToString(scope);
  out += "}";
  return out;
}

}  // namespace adr
