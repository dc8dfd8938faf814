#include "nn/pooling.h"

#include <limits>

#include "util/check.h"
#include "util/parallel.h"

namespace adr {

namespace {

// Output spatial size of pooling without padding; allows a partial final
// window when the input is not evenly tiled (matches common "valid + ceil"
// behaviour closely enough for our networks, which are sized to tile).
int64_t PooledSize(int64_t in, int64_t kernel, int64_t stride) {
  ADR_CHECK_GE(in, kernel);
  return (in - kernel) / stride + 1;
}

}  // namespace

Tensor MaxPool2d::Forward(const Tensor& input, bool /*training*/) {
  ADR_CHECK_EQ(input.shape().rank(), 4);
  input_shape_ = input.shape();
  const int64_t batch = input.shape()[0], channels = input.shape()[1];
  const int64_t ih = input.shape()[2], iw = input.shape()[3];
  const int64_t oh = PooledSize(ih, config_.kernel, config_.stride);
  const int64_t ow = PooledSize(iw, config_.kernel, config_.stride);
  const int64_t window = config_.kernel * config_.kernel;

  Tensor out(Shape({batch, channels, oh, ow}));
  // Every entry is written below, so a resize is enough.
  argmax_.resize(static_cast<size_t>(out.num_elements()));
  const float* src = input.data();
  float* dst = out.data();
  int64_t* argmax = argmax_.data();
  // One (n, c) plane per index: a plane's windows read only that plane.
  ParallelFor(batch * channels, GrainForCost(oh * ow * window),
              [&](int64_t begin, int64_t end) {
    for (int64_t q = begin; q < end; ++q) {
      const int64_t plane_base = q * ih * iw;
      const float* plane = src + plane_base;
      int64_t out_idx = q * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          // A window with no value above -inf (all NaN or -inf) routes its
          // gradient to its first element, inside this plane.
          int64_t best_idx =
              plane_base + oy * config_.stride * iw + ox * config_.stride;
          for (int64_t ky = 0; ky < config_.kernel; ++ky) {
            const int64_t y = oy * config_.stride + ky;
            for (int64_t kx = 0; kx < config_.kernel; ++kx) {
              const int64_t x = ox * config_.stride + kx;
              const float v = plane[y * iw + x];
              if (v > best) {
                best = v;
                best_idx = plane_base + y * iw + x;
              }
            }
          }
          dst[out_idx] = best;
          argmax[out_idx] = best_idx;
          ++out_idx;
        }
      }
    }
  });
  return out;
}

Tensor MaxPool2d::Backward(const Tensor& grad_output) {
  ADR_CHECK(input_shape_.rank() == 4 &&
            static_cast<size_t>(grad_output.num_elements()) == argmax_.size())
      << "Backward before Forward";
  Tensor grad_input(input_shape_);
  float* dst = grad_input.data();
  const float* src = grad_output.data();
  const int64_t* argmax = argmax_.data();
  // Plane q's outputs point only into plane q of the input, so chunks of
  // planes write disjoint ranges and keep each plane's add order, also
  // when windows overlap. A chunk's cost is the input planes its adds
  // land in.
  const int64_t ih = input_shape_[2], iw = input_shape_[3];
  const int64_t planes = input_shape_[0] * input_shape_[1];
  const int64_t plane_outputs = PooledSize(ih, config_.kernel, config_.stride) *
                                PooledSize(iw, config_.kernel, config_.stride);
  ParallelFor(planes, GrainForCost(ih * iw),
              [&](int64_t begin, int64_t end) {
    for (int64_t i = begin * plane_outputs; i < end * plane_outputs; ++i) {
      dst[argmax[i]] += src[i];
    }
  });
  return grad_input;
}

Tensor AvgPool2d::Forward(const Tensor& input, bool /*training*/) {
  ADR_CHECK_EQ(input.shape().rank(), 4);
  input_shape_ = input.shape();
  const int64_t batch = input.shape()[0], channels = input.shape()[1];
  const int64_t ih = input.shape()[2], iw = input.shape()[3];
  const int64_t oh = PooledSize(ih, config_.kernel, config_.stride);
  const int64_t ow = PooledSize(iw, config_.kernel, config_.stride);
  const float inv = 1.0f / static_cast<float>(config_.kernel * config_.kernel);

  Tensor out(Shape({batch, channels, oh, ow}));
  const float* src = input.data();
  float* dst = out.data();
  int64_t out_idx = 0;
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      const float* plane = src + (n * channels + c) * ih * iw;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float sum = 0.0f;
          for (int64_t ky = 0; ky < config_.kernel; ++ky) {
            const int64_t y = oy * config_.stride + ky;
            for (int64_t kx = 0; kx < config_.kernel; ++kx) {
              sum += plane[y * iw + ox * config_.stride + kx];
            }
          }
          dst[out_idx++] = sum * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2d::Backward(const Tensor& grad_output) {
  ADR_CHECK_EQ(input_shape_.rank(), 4) << "Backward before Forward";
  const int64_t batch = input_shape_[0], channels = input_shape_[1];
  const int64_t ih = input_shape_[2], iw = input_shape_[3];
  const int64_t oh = grad_output.shape()[2], ow = grad_output.shape()[3];
  const float inv = 1.0f / static_cast<float>(config_.kernel * config_.kernel);

  Tensor grad_input(input_shape_);
  float* dst = grad_input.data();
  const float* src = grad_output.data();
  int64_t out_idx = 0;
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      float* plane = dst + (n * channels + c) * ih * iw;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float g = src[out_idx++] * inv;
          for (int64_t ky = 0; ky < config_.kernel; ++ky) {
            const int64_t y = oy * config_.stride + ky;
            for (int64_t kx = 0; kx < config_.kernel; ++kx) {
              const int64_t x = ox * config_.stride + kx;
              plane[y * iw + x] += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace adr
