// Conv2d: im2col + GEMM convolution, the baseline that deep reuse
// accelerates. Weight layout is the paper's: W is K x M with
// K = Ic*kh*kw and M = out_channels, so y = x_unfolded * W + b.

#ifndef ADR_NN_CONV2D_H_
#define ADR_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/layer.h"
#include "tensor/im2col.h"
#include "tensor/tensor.h"
#include "tensor/workspace_arena.h"
#include "util/rng.h"

namespace adr {

/// \brief Spatial configuration of a conv layer (geometry minus batch size).
struct Conv2dConfig {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 0;  ///< square kernel, kh == kw
  int64_t stride = 1;
  int64_t pad = 0;
  int64_t in_height = 0;  ///< expected input spatial size
  int64_t in_width = 0;
};

/// \brief Converts GEMM-output rows [N, M] (row order n, oy, ox) to
/// [Nb, M, Oh, Ow] planes, adding `bias[c]` (length `channels`; null adds
/// nothing) to every element as it is written, so each element is
/// `rows + bias` once, as after AddRowBias. `out` holds
/// batch*channels*height*width floats and is fully overwritten. Images run
/// in parallel.
void RowsToNchw(const float* rows, const float* bias, int64_t batch,
                int64_t channels, int64_t height, int64_t width, float* out);

/// \brief Inverse of RowsToNchw (without bias), into a caller-owned
/// [N, M] buffer (fully overwritten). Images run in parallel.
void NchwToRows(const Tensor& nchw, float* out);

/// \brief out[c] = sum of channel c over all (n, y, x) of a [Nb, C, H, W]
/// tensor: the column sums of its NchwToRows layout, in the same order
/// (from 0.0f, ascending (n, y, x)), so bit-identical to ColumnSumsInto
/// of that layout. Channels run in parallel.
void NchwChannelSums(const Tensor& nchw, float* out);

/// \brief grad_input = Col2Im(dy * W^T), the input gradient of a conv
/// layer (Eq. 3), without building the N x K product. dy is [N, M] rows,
/// W is [K, M], grad_input is [Nb, Ic, Ih, Iw] and fully overwritten.
/// Col2ImTiles folds it; each tile's rows of dy * W^T are computed by Gemm
/// against W^T (transposed once). Rows are independent, so the result is
/// bitwise GemmTransB followed by Col2Im, at any thread count.
void ConvBackwardInput(const ConvGeometry& geo, const float* dy,
                       const float* weight, int64_t out_channels,
                       WorkspaceArena* arena, float* grad_input);

/// \brief Standard convolution layer. ReuseConv2d derives from it and runs
/// its passes whenever a pass is dense.
class Conv2d : public Layer {
 public:
  Conv2d(std::string name, const Conv2dConfig& config, Rng* rng);

  std::string name() const override { return name_; }
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Tensor*> Parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> Gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  double ForwardMacs(int64_t batch) const override;

  const Conv2dConfig& config() const { return config_; }
  /// \brief Geometry for the given batch size.
  ConvGeometry Geometry(int64_t batch) const;

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

  /// \brief Step-scoped scratch arena (see WorkspaceArena); constant
  /// reserved_bytes()/alloc_slabs() after the first step at fixed shapes.
  const WorkspaceArena& workspace() const { return arena_; }

 protected:
  /// \brief A training Forward's first step: when `keep`, unfolds `input`
  /// into the [N, K] matrix Backward reads; otherwise drops that matrix,
  /// and Backward then fails until the next kept unfold.
  void KeepUnfoldedInput(const Tensor& input, bool keep);
  WorkspaceArena* mutable_workspace() { return &arena_; }
  Tensor& grad_weight() { return grad_weight_; }
  Tensor& grad_bias() { return grad_bias_; }

 private:
  std::string name_;
  Conv2dConfig config_;
  Tensor weight_;       ///< [K, M]
  Tensor bias_;         ///< [M]
  Tensor grad_weight_;  ///< [K, M]
  Tensor grad_bias_;    ///< [M]
  /// Step-scoped scratch; Reset() at the top of every Forward.
  WorkspaceArena arena_;
  /// Unfolded input kept for Backward (KeepUnfoldedInput) — persistent
  /// across steps; eval streams L2-sized tiles instead.
  Tensor cached_cols_;
  int64_t cached_batch_ = 0;
};

}  // namespace adr

#endif  // ADR_NN_CONV2D_H_
