// Elementwise activation layers.

#ifndef ADR_NN_ACTIVATIONS_H_
#define ADR_NN_ACTIVATIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace adr {

/// \brief Rectified linear unit, y = max(0, x).
class Relu : public Layer {
 public:
  explicit Relu(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  std::string name_;
  Shape input_shape_;
  /// 1 where input > 0, else 0; the buffer is kept across calls.
  std::vector<uint8_t> mask_;
};

/// \brief Hyperbolic tangent.
class Tanh : public Layer {
 public:
  explicit Tanh(std::string name) : name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  std::string name_;
  Tensor output_;  ///< cached tanh(x)
};

}  // namespace adr

#endif  // ADR_NN_ACTIVATIONS_H_
