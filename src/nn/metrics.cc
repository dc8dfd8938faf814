#include "nn/metrics.h"

#include <algorithm>

#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace adr {

ConfusionMatrix::ConfusionMatrix(int num_classes)
    : num_classes_(num_classes),
      counts_(static_cast<size_t>(num_classes) * num_classes, 0) {
  ADR_CHECK_GT(num_classes, 1);
}

void ConfusionMatrix::AddBatch(const Tensor& logits,
                               const std::vector<int>& labels) {
  ADR_CHECK_EQ(logits.shape().rank(), 2);
  ADR_CHECK_EQ(logits.shape()[0], static_cast<int64_t>(labels.size()));
  for (size_t i = 0; i < labels.size(); ++i) {
    Add(labels[i],
        static_cast<int>(ArgMaxRow(logits, static_cast<int64_t>(i))));
  }
}

void ConfusionMatrix::Add(int true_label, int predicted_label) {
  ADR_CHECK(true_label >= 0 && true_label < num_classes_);
  ADR_CHECK(predicted_label >= 0 && predicted_label < num_classes_);
  ++counts_[static_cast<size_t>(true_label) * num_classes_ +
            predicted_label];
  ++total_;
}

int64_t ConfusionMatrix::count(int true_label, int predicted_label) const {
  ADR_CHECK(true_label >= 0 && true_label < num_classes_);
  ADR_CHECK(predicted_label >= 0 && predicted_label < num_classes_);
  return counts_[static_cast<size_t>(true_label) * num_classes_ +
                 predicted_label];
}

double ConfusionMatrix::Accuracy() const {
  if (total_ == 0) return 0.0;
  int64_t diagonal = 0;
  for (int c = 0; c < num_classes_; ++c) diagonal += count(c, c);
  return static_cast<double>(diagonal) / static_cast<double>(total_);
}

double ConfusionMatrix::Recall(int label) const {
  int64_t row = 0;
  for (int c = 0; c < num_classes_; ++c) row += count(label, c);
  if (row == 0) return 0.0;
  return static_cast<double>(count(label, label)) /
         static_cast<double>(row);
}

double ConfusionMatrix::Precision(int label) const {
  int64_t column = 0;
  for (int c = 0; c < num_classes_; ++c) column += count(c, label);
  if (column == 0) return 0.0;
  return static_cast<double>(count(label, label)) /
         static_cast<double>(column);
}

double ConfusionMatrix::MacroRecall() const {
  double sum = 0.0;
  int observed = 0;
  for (int c = 0; c < num_classes_; ++c) {
    int64_t row = 0;
    for (int j = 0; j < num_classes_; ++j) row += count(c, j);
    if (row > 0) {
      sum += Recall(c);
      ++observed;
    }
  }
  return observed == 0 ? 0.0 : sum / observed;
}

void ConfusionMatrix::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

double TrainingHistory::RecentMeanLoss(size_t window) const {
  if (entries_.empty()) return 0.0;
  const size_t n = std::min(window, entries_.size());
  double sum = 0.0;
  for (size_t i = entries_.size() - n; i < entries_.size(); ++i) {
    sum += entries_[i].loss;
  }
  return sum / static_cast<double>(n);
}

double TrainingHistory::BestEvalAccuracy() const {
  double best = -1.0;
  for (const Entry& entry : entries_) {
    best = std::max(best, entry.eval_accuracy);
  }
  return best;
}

}  // namespace adr
