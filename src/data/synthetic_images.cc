#include "data/synthetic_images.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace adr {

namespace {

// Channels that share one evaluation of a blob's falloff. Their
// amplitudes live in a stack array, so adding blobs allocates nothing.
constexpr int64_t kChannelChunk = 8;

// Adds `count` Gaussian blobs to a C x H x W image. Blob centers, radii and
// per-channel amplitudes come from `rng`. `amplitude` scales all blobs.
void AddBlobs(Rng* rng, int count, float radius_fraction, float amplitude,
              int64_t channels, int64_t height, int64_t width, float* image) {
  const float base_radius =
      radius_fraction * static_cast<float>(std::min(height, width));
  const int64_t plane = height * width;
  for (int b = 0; b < count; ++b) {
    const float cy = rng->NextUniform(0.0f, static_cast<float>(height));
    const float cx = rng->NextUniform(0.0f, static_cast<float>(width));
    const float radius = base_radius * rng->NextUniform(0.5f, 1.5f);
    const float inv_2r2 = 1.0f / (2.0f * radius * radius);
    // Per-channel amplitudes share a sign so blobs look like colored
    // features, not random static.
    const float sign = rng->NextDouble() < 0.5 ? -1.0f : 1.0f;
    for (int64_t c0 = 0; c0 < channels; c0 += kChannelChunk) {
      const int64_t chunk = std::min(kChannelChunk, channels - c0);
      float amps[kChannelChunk];
      for (int64_t c = 0; c < chunk; ++c) {
        amps[c] = sign * amplitude * rng->NextUniform(0.3f, 1.0f);
      }
      // One falloff per pixel, added to each channel of the chunk.
      for (int64_t y = 0; y < height; ++y) {
        const float dy = static_cast<float>(y) - cy;
        for (int64_t x = 0; x < width; ++x) {
          const float dx = static_cast<float>(x) - cx;
          const float falloff = std::exp(-(dx * dx + dy * dy) * inv_2r2);
          float* pixel = image + c0 * plane + y * width + x;
          for (int64_t c = 0; c < chunk; ++c) {
            pixel[c * plane] += amps[c] * falloff;
          }
        }
      }
    }
  }
}

}  // namespace

SyntheticImageConfig SyntheticImageConfig::CifarLike(int64_t num_samples,
                                                     uint64_t seed) {
  SyntheticImageConfig config;
  config.num_classes = 10;
  config.num_samples = num_samples;
  config.channels = 3;
  config.height = 32;
  config.width = 32;
  config.seed = seed;
  return config;
}

SyntheticImageConfig SyntheticImageConfig::ImageNetLike(int64_t num_samples,
                                                        int num_classes,
                                                        uint64_t seed) {
  SyntheticImageConfig config;
  config.num_classes = num_classes;
  config.num_samples = num_samples;
  config.channels = 3;
  config.height = 224;
  config.width = 224;
  config.blobs_per_template = 12;
  config.blob_radius_fraction = 0.15f;
  config.max_translation = 16;
  config.seed = seed;
  return config;
}

Result<SyntheticImageDataset> SyntheticImageDataset::Create(
    const SyntheticImageConfig& config) {
  if (config.num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes, got " +
                                   std::to_string(config.num_classes));
  }
  if (config.num_samples <= 0) {
    return Status::InvalidArgument("num_samples must be > 0");
  }
  if (config.channels <= 0 || config.height <= 0 || config.width <= 0) {
    return Status::InvalidArgument("image dims must be > 0");
  }
  if (config.max_translation < 0 ||
      config.max_translation >= std::min(config.height, config.width)) {
    return Status::InvalidArgument("max_translation out of range");
  }
  if (config.blob_radius_fraction <= 0.0f) {
    return Status::InvalidArgument("blob_radius_fraction must be > 0");
  }

  SyntheticImageDataset dataset;
  dataset.config_ = config;
  const size_t image_elems = static_cast<size_t>(config.channels) *
                             config.height * config.width;
  Rng rng(config.seed);
  dataset.templates_.resize(static_cast<size_t>(config.num_classes));
  for (auto& tmpl : dataset.templates_) {
    tmpl.assign(image_elems, 0.0f);
    AddBlobs(&rng, config.blobs_per_template, config.blob_radius_fraction,
             /*amplitude=*/1.0f, config.channels, config.height, config.width,
             tmpl.data());
  }
  return dataset;
}

void SyntheticImageDataset::Get(int64_t index, float* out_image,
                                int* out_label) const {
  ADR_CHECK(index >= 0 && index < config_.num_samples)
      << "index " << index << " out of range";
  // Per-sample generator: deterministic in (seed, index).
  Rng rng(config_.seed ^ (0x5851f42d4c957f2dULL * static_cast<uint64_t>(index + 1)));
  const int label = static_cast<int>(index % config_.num_classes);
  *out_label = label;

  const int64_t c_count = config_.channels;
  const int64_t h = config_.height;
  const int64_t w = config_.width;
  const std::vector<float>& tmpl = templates_[static_cast<size_t>(label)];

  // Translated copy of the class template (wrap-around borders keep the
  // statistics stationary).
  const int t = config_.max_translation;
  const int64_t dy = t > 0 ? static_cast<int64_t>(rng.NextBounded(2 * t + 1)) - t : 0;
  const int64_t dx = t > 0 ? static_cast<int64_t>(rng.NextBounded(2 * t + 1)) - t : 0;
  // Each destination row is its source row rotated left by sx: two
  // contiguous copies.
  const int64_t sy0 = (dy % h + h) % h;
  const int64_t sx = (dx % w + w) % w;
  for (int64_t c = 0; c < c_count; ++c) {
    const float* src = tmpl.data() + c * h * w;
    float* dst = out_image + c * h * w;
    for (int64_t y = 0, sy = sy0; y < h; ++y, sy = sy + 1 == h ? 0 : sy + 1) {
      const float* row = src + sy * w;
      std::copy(row + sx, row + w, dst + y * w);
      std::copy(row, row + sx, dst + y * w + (w - sx));
    }
  }

  // Smooth structured noise: a few low-amplitude blobs.
  if (config_.structured_noise > 0.0f) {
    AddBlobs(&rng, /*count=*/3, config_.blob_radius_fraction,
             config_.structured_noise, c_count, h, w, out_image);
  }

  // White noise.
  if (config_.white_noise > 0.0f) {
    const int64_t total = c_count * h * w;
    for (int64_t i = 0; i < total; ++i) {
      out_image[i] += rng.NextGaussian(0.0f, config_.white_noise);
    }
  }
}

}  // namespace adr
