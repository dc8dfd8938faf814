// The per-layer savings table of a model's reuse layers: what did reuse
// buy on this run?

#ifndef ADR_CORE_REUSE_REPORT_H_
#define ADR_CORE_REUSE_REPORT_H_

#include <string>
#include <vector>

#include "core/reuse_conv2d.h"

namespace adr {

/// \brief Renders one row per layer (name, config, K, M, r_c, MACs saved)
/// from its cumulative GetReuseStats(), plus a total row. The config
/// column is as wide as the longest config string, so every column lines
/// up.
std::string FormatReuseReport(const std::vector<ReuseConv2d*>& layers);

}  // namespace adr

#endif  // ADR_CORE_REUSE_REPORT_H_
