// Dataset interface and batch container.

#ifndef ADR_DATA_DATASET_H_
#define ADR_DATA_DATASET_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace adr {

/// \brief One mini-batch: images in NCHW and integer labels.
struct Batch {
  Tensor images;            ///< [Nb, C, H, W]
  std::vector<int> labels;  ///< length Nb

  int64_t size() const { return static_cast<int64_t>(labels.size()); }
};

/// \brief Abstract image-classification dataset with random access.
class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual int64_t size() const = 0;
  virtual int num_classes() const = 0;
  /// Shape of one image, [C, H, W].
  virtual Shape image_shape() const = 0;

  /// \brief Writes image `index` (C*H*W floats, NCHW) and its label.
  /// Must be safe to call concurrently from several threads for distinct
  /// output buffers: DataLoader and MakeBatch fill a batch's images in
  /// parallel. The result may depend only on `index` and the dataset's
  /// immutable state, never on call order.
  virtual void Get(int64_t index, float* out_image, int* out_label) const = 0;
};

}  // namespace adr

#endif  // ADR_DATA_DATASET_H_
