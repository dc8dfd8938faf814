// Layer: the unit of composition of the NN substrate.
//
// Layers own their parameters and parameter gradients, cache whatever they
// need from Forward to run Backward, and exchange dense tensors:
// 4-D [N, C, H, W] between spatial layers, 2-D [N, features] after Flatten.

#ifndef ADR_NN_LAYER_H_
#define ADR_NN_LAYER_H_

#include <string>
#include <vector>

#include "nn/reuse_stats.h"
#include "tensor/tensor.h"

namespace adr {

/// \brief Abstract base for all network layers.
///
/// Protocol: Forward must be called before Backward for the same batch;
/// Backward accumulates nothing across calls (parameter gradients are
/// overwritten each time).
class Layer {
 public:
  virtual ~Layer() = default;

  /// \brief Human-readable layer name, e.g. "conv1".
  virtual std::string name() const = 0;

  /// \brief Computes the layer output; `training` toggles train-only
  /// behaviour (batch statistics, reuse clustering kept for Backward, ...).
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  /// \brief Fills parameter gradients from the gradient w.r.t. the output,
  /// and returns the gradient w.r.t. the layer input. When
  /// needs_input_grad() is false, a layer whose input gradient is a pass
  /// of its own (Conv2d and ReuseConv2d: the dX GEMM and the fold) skips
  /// it and returns an empty Tensor (`Tensor()`, rank 0); parameter
  /// gradients are the same bits either way.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// \brief Whether Backward must return the input gradient. On for a
  /// new layer; Network::Add turns it off for a network's first layer,
  /// whose input gradient feeds nothing.
  bool needs_input_grad() const { return needs_input_grad_; }
  void set_needs_input_grad(bool needs) { needs_input_grad_ = needs; }

  /// \brief Learnable parameters (empty for stateless layers).
  virtual std::vector<Tensor*> Parameters() { return {}; }

  /// \brief Gradients, parallel to Parameters().
  virtual std::vector<Tensor*> Gradients() { return {}; }

  /// \brief Non-learnable state that must travel with the weights
  /// (e.g. BatchNorm running statistics). Copied by CopyWeights and
  /// saved in checkpoints; not touched by optimizers.
  virtual std::vector<Tensor*> StateTensors() { return {}; }

  /// \brief Number of multiply-accumulate operations of one forward pass for
  /// the given batch size (0 for negligible layers). Used by the complexity
  /// model and the bench harness.
  virtual double ForwardMacs(int64_t /*batch*/) const { return 0.0; }

  /// \brief Reuse telemetry, or nullptr for layers without reuse. Lets
  /// Network::CollectReuseStats report savings without downcasting to
  /// concrete reuse layer types.
  virtual const ReuseLayerStats* GetReuseStats() const { return nullptr; }

  /// \brief Clears the telemetry returned by GetReuseStats (no-op for
  /// layers without reuse).
  virtual void ResetReuseStats() {}

 private:
  bool needs_input_grad_ = true;
};

}  // namespace adr

#endif  // ADR_NN_LAYER_H_
