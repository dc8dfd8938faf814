#include "data/dataloader.h"

#include <numeric>

#include "util/check.h"
#include "util/parallel.h"

namespace adr {

namespace {

// Operations a Dataset::Get spends per image element: generating an image
// is far dearer than copying it (SyntheticImageDataset draws a Gaussian
// and evaluates blob falloffs per element).
constexpr int64_t kGetOpsPerElement = 64;

// Fills `batch` with samples index_of(0..count-1), images in parallel;
// each image and label has its own slot. The image tensor is reused when
// it already has the batch's shape.
template <typename IndexOf>
void FillBatch(const Dataset& dataset, int64_t count, IndexOf index_of,
               Batch* batch) {
  const Shape img = dataset.image_shape();
  const Shape shape({count, img[0], img[1], img[2]});
  if (!(batch->images.shape() == shape)) batch->images = Tensor(shape);
  batch->labels.resize(static_cast<size_t>(count));
  const int64_t image_elems = img.num_elements();
  float* dst = batch->images.data();
  int* labels = batch->labels.data();
  ParallelFor(count, GrainForCost(kGetOpsPerElement * image_elems),
              [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      dataset.Get(index_of(i), dst + i * image_elems, labels + i);
    }
  });
}

}  // namespace

DataLoader::DataLoader(const Dataset* dataset, int64_t batch_size,
                       bool shuffle, uint64_t seed)
    : dataset_(dataset),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(seed) {
  ADR_CHECK(dataset != nullptr);
  ADR_CHECK(batch_size >= 1 && batch_size <= dataset->size())
      << "batch_size " << batch_size << " vs dataset size "
      << dataset->size();
  order_.resize(static_cast<size_t>(dataset->size()));
  std::iota(order_.begin(), order_.end(), 0);
  if (shuffle_) rng_.Shuffle(&order_);
}

void DataLoader::Next(Batch* batch) {
  if (cursor_ + batch_size_ > static_cast<int64_t>(order_.size())) {
    cursor_ = 0;
    ++epoch_;
    if (shuffle_) rng_.Shuffle(&order_);
  }
  FillBatch(*dataset_, batch_size_,
            [&](int64_t i) { return order_[static_cast<size_t>(cursor_ + i)]; },
            batch);
  cursor_ += batch_size_;
}

void DataLoader::Reset() {
  cursor_ = 0;
  epoch_ = 0;
}

Batch MakeBatch(const Dataset& dataset, int64_t start, int64_t count) {
  ADR_CHECK(start >= 0 && count > 0 && start + count <= dataset.size());
  Batch batch;
  FillBatch(dataset, count, [&](int64_t i) { return start + i; }, &batch);
  return batch;
}

}  // namespace adr
