#include "nn/dense.h"

#include <cmath>

#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace adr {

Dense::Dense(std::string name, int64_t in_features, int64_t out_features,
             Rng* rng)
    : name_(std::move(name)),
      in_features_(in_features),
      out_features_(out_features) {
  ADR_CHECK_GT(in_features, 0);
  ADR_CHECK_GT(out_features, 0);
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_ = Tensor::RandomGaussian(Shape({in_features, out_features}), rng,
                                   0.0f, stddev);
  bias_ = Tensor(Shape({out_features}));
  grad_weight_ = Tensor(Shape({in_features, out_features}));
  grad_bias_ = Tensor(Shape({out_features}));
}

Tensor Dense::Forward(const Tensor& input, bool /*training*/) {
  ADR_CHECK_EQ(input.shape().rank(), 2);
  ADR_CHECK_EQ(input.shape()[1], in_features_);
  cached_input_ = input;
  const int64_t batch = input.shape()[0];
  Tensor out(Shape({batch, out_features_}));
  Gemm(input.data(), weight_.data(), out.data(), batch, in_features_,
       out_features_);
  AddRowBias(bias_, &out);
  return out;
}

Tensor Dense::Backward(const Tensor& grad_output) {
  const int64_t batch = cached_input_.shape()[0];
  ADR_CHECK(grad_output.shape() == Shape({batch, out_features_}));

  GemmTransA(cached_input_.data(), grad_output.data(), grad_weight_.data(),
             in_features_, batch, out_features_);
  ColumnSumsInto(grad_output.data(), batch, out_features_,
                 grad_bias_.data());

  Tensor grad_input(Shape({batch, in_features_}));
  GemmTransB(grad_output.data(), weight_.data(), grad_input.data(), batch,
             out_features_, in_features_);
  return grad_input;
}

Tensor Flatten::Forward(const Tensor& input, bool /*training*/) {
  input_shape_ = input.shape();
  const int64_t batch = input.shape()[0];
  return input.Reshaped(Shape({batch, input.num_elements() / batch}));
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  ADR_CHECK_GT(input_shape_.rank(), 0) << "Backward before Forward";
  return grad_output.Reshaped(input_shape_);
}

}  // namespace adr
