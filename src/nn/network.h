// Network: a sequential container of layers.

#ifndef ADR_NN_NETWORK_H_
#define ADR_NN_NETWORK_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.h"
#include "nn/reuse_stats.h"
#include "tensor/tensor.h"

namespace adr {

/// \brief Sequential network: output of layer i feeds layer i+1.
class Network {
 public:
  Network() = default;

  /// \brief Appends a layer and returns a raw pointer for configuration
  /// (the network keeps ownership). The first layer added gets
  /// set_needs_input_grad(false): nothing reads the gradient w.r.t. the
  /// network input during training.
  template <typename LayerT>
  LayerT* Add(std::unique_ptr<LayerT> layer) {
    LayerT* raw = layer.get();
    if (layers_.empty()) raw->set_needs_input_grad(false);
    layers_.push_back(std::move(layer));
    return raw;
  }

  /// \brief Runs all layers forward.
  Tensor Forward(const Tensor& input, bool training);

  /// \brief Runs all layers backward from the loss gradient, filling every
  /// parameter gradient, and returns the first layer's Backward result.
  /// That is the gradient w.r.t. the network input only while the first
  /// layer's needs_input_grad() is on; Add turns it off, so a network
  /// that starts with a conv returns an empty Tensor unless the caller
  /// calls layer(0)->set_needs_input_grad(true).
  Tensor Backward(const Tensor& grad_output);

  /// \brief All learnable parameters, layer order.
  std::vector<Tensor*> Parameters() const;

  /// \brief All gradients, parallel to Parameters().
  std::vector<Tensor*> Gradients() const;

  /// \brief All non-learnable state tensors (see Layer::StateTensors).
  std::vector<Tensor*> StateTensors() const;

  size_t num_layers() const { return layers_.size(); }
  Layer* layer(size_t i) { return layers_[i].get(); }
  const Layer* layer(size_t i) const { return layers_[i].get(); }

  /// \brief First layer with the given name, or nullptr.
  Layer* FindLayer(const std::string& name);

  /// \brief Total learnable parameter count.
  int64_t NumParameters() const;

  /// \brief Total forward multiply-accumulates for one batch.
  double ForwardMacs(int64_t batch) const;

  /// \brief (layer name, stats) for every layer that exposes reuse
  /// telemetry, network order. Replaces downcasting to concrete reuse
  /// layer types in examples and benches.
  std::vector<std::pair<std::string, ReuseLayerStats>> CollectReuseStats()
      const;

  /// \brief Clears reuse telemetry on every layer.
  void ResetReuseStats();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace adr

#endif  // ADR_NN_NETWORK_H_
