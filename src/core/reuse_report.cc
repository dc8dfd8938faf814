#include "core/reuse_report.h"

#include <algorithm>
#include <cstdio>

namespace adr {

std::string FormatReuseReport(const std::vector<ReuseConv2d*>& layers) {
  // The config column is as wide as its longest entry, so rows stay
  // aligned with the header.
  int config_width = 6;
  for (const ReuseConv2d* layer : layers) {
    config_width = std::max(
        config_width,
        static_cast<int>(layer->reuse_config().ToString().size()));
  }
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line), "%-10s %-*s %6s %6s %8s %10s\n", "layer",
                config_width, "config", "K", "M", "r_c", "MACs saved");
  out += line;
  ReuseLayerStats total;
  for (const ReuseConv2d* layer : layers) {
    const ReuseLayerStats& stats = *layer->GetReuseStats();
    std::snprintf(line, sizeof(line),
                  "%-10s %-*s %6lld %6lld %8.3f %9.1f%%\n",
                  layer->name().c_str(), config_width,
                  layer->reuse_config().ToString().c_str(),
                  static_cast<long long>(layer->unfolded_cols()),
                  static_cast<long long>(layer->config().out_channels),
                  stats.avg_remaining_ratio, stats.MacsSavedFraction() * 100.0);
    out += line;
    total.Add(stats);
  }
  std::snprintf(line, sizeof(line), "%-10s %-*s %6s %6s %8s %9.1f%%\n",
                "TOTAL", config_width, "", "", "", "",
                total.MacsSavedFraction() * 100.0);
  out += line;
  return out;
}

}  // namespace adr
