// Tests for the reuse report table.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/reuse_report.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace adr {
namespace {

Conv2dConfig ReportConv() {
  Conv2dConfig config;
  config.in_channels = 2;
  config.out_channels = 4;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 6;
  config.in_width = 6;
  return config;
}

TEST(ReuseReportTest, CollectsAndFormats) {
  Rng rng(3);
  ReuseConfig reuse;  // default config: the longest ToString() in use
  ReuseConv2d layer1("conv1", ReportConv(), reuse, &rng);
  ReuseConv2d layer2("conv2", ReportConv(), reuse, &rng);
  Rng data_rng(4);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  layer1.Forward(in, true);
  layer2.Forward(in, true);

  const std::string table = FormatReuseReport({&layer1, &layer2});
  std::vector<std::string> lines;
  std::istringstream stream(table);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header, two layers, total
  EXPECT_EQ(lines[1].rfind("conv1", 0), 0u);
  EXPECT_EQ(lines[3].rfind("TOTAL", 0), 0u);
  EXPECT_NE(lines[1].find(reuse.ToString()), std::string::npos);

  // Every row puts its r_c value in the columns that end where the
  // header's "r_c" ends.
  const size_t rc_pos = lines[0].find("r_c");
  ASSERT_NE(rc_pos, std::string::npos);
  const size_t rc_end = rc_pos + 3;
  const ReuseConv2d* layers[] = {&layer1, &layer2};
  for (int i = 0; i < 2; ++i) {
    char rc[16];
    std::snprintf(rc, sizeof(rc), "%8.3f",
                  layers[i]->GetReuseStats()->avg_remaining_ratio);
    ASSERT_GE(lines[1 + i].size(), rc_end);
    EXPECT_EQ(lines[1 + i].substr(rc_end - 8, 8), rc) << lines[1 + i];
  }
  // The last column (MACs saved) ends with the header on every row.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.size(), lines[0].size()) << line;
  }
  // The total is over both layers' MACs.
  const ReuseLayerStats& stats1 = *layer1.GetReuseStats();
  const ReuseLayerStats& stats2 = *layer2.GetReuseStats();
  const double executed = stats1.macs_executed + stats2.macs_executed;
  const double baseline = stats1.macs_baseline + stats2.macs_baseline;
  char total[16];
  std::snprintf(total, sizeof(total), "%9.1f%%",
                (1.0 - executed / baseline) * 100.0);
  EXPECT_EQ(lines[3].substr(lines[3].size() - 10), total);
}

TEST(ReuseReportTest, ResetStatsClearsAll) {
  Rng rng(7);
  ReuseConfig reuse;
  reuse.num_hashes = 8;
  ReuseConv2d layer("conv", ReportConv(), reuse, &rng);
  Rng data_rng(8);
  Tensor in = Tensor::RandomGaussian(Shape({1, 2, 6, 6}), &data_rng);
  layer.Forward(in, true);
  layer.ResetReuseStats();
  EXPECT_EQ(layer.GetReuseStats()->forward_calls, 0);
  EXPECT_EQ(layer.GetReuseStats()->macs_baseline, 0.0);
}

}  // namespace
}  // namespace adr
