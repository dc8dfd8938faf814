#include "nn/activations.h"

#include <bit>
#include <cmath>

#include "util/check.h"
#include "util/parallel.h"

namespace adr {

Tensor Relu::Forward(const Tensor& input, bool /*training*/) {
  input_shape_ = input.shape();
  const int64_t n = input.num_elements();
  mask_.resize(static_cast<size_t>(n));
  Tensor out(input.shape());
  const float* x = input.data();
  float* o = out.data();
  uint8_t* m = mask_.data();
  ParallelFor(n, GrainForCost(1), [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // Branch-free, since activation signs defeat a branch predictor:
      // x's bits where x > 0, else those of +0.0f (also for NaN).
      const uint32_t keep = 0u - static_cast<uint32_t>(x[i] > 0.0f);
      o[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(x[i]) & keep);
      m[i] = static_cast<uint8_t>(keep & 1u);
    }
  });
  return out;
}

Tensor Relu::Backward(const Tensor& grad_output) {
  ADR_CHECK(grad_output.shape() == input_shape_ &&
            static_cast<size_t>(grad_output.num_elements()) == mask_.size())
      << "Backward before Forward";
  Tensor grad(grad_output.shape());
  const float* g = grad_output.data();
  float* d = grad.data();
  const uint8_t* m = mask_.data();
  ParallelFor(grad.num_elements(), GrainForCost(1),
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  d[i] = g[i] * static_cast<float>(m[i]);
                }
              });
  return grad;
}

Tensor Tanh::Forward(const Tensor& input, bool /*training*/) {
  output_ = input;
  float* o = output_.data();
  const int64_t n = output_.num_elements();
  for (int64_t i = 0; i < n; ++i) o[i] = std::tanh(o[i]);
  return output_;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  ADR_CHECK(grad_output.SameShape(output_)) << "Backward before Forward";
  Tensor grad = grad_output;
  float* g = grad.data();
  const float* o = output_.data();
  const int64_t n = grad.num_elements();
  for (int64_t i = 0; i < n; ++i) g[i] *= 1.0f - o[i] * o[i];
  return grad;
}

}  // namespace adr
