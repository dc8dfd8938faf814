// Classification metrics and a training-history recorder.

#ifndef ADR_NN_METRICS_H_
#define ADR_NN_METRICS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace adr {

/// \brief Confusion counts for a C-class classifier; rows are true labels,
/// columns predictions.
class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes);

  /// \brief Adds argmax predictions of `logits` ([N, C]) against `labels`.
  void AddBatch(const Tensor& logits, const std::vector<int>& labels);

  /// \brief Adds one (true, predicted) observation.
  void Add(int true_label, int predicted_label);

  int64_t count(int true_label, int predicted_label) const;
  int64_t total() const { return total_; }
  double Accuracy() const;
  /// \brief Recall of one class (diagonal / row sum); 0 when unseen.
  double Recall(int label) const;
  /// \brief Precision of one class (diagonal / column sum); 0 when never
  /// predicted.
  double Precision(int label) const;
  /// \brief Unweighted mean of per-class recalls over observed classes.
  double MacroRecall() const;

  int num_classes() const { return num_classes_; }
  void Reset();

 private:
  int num_classes_;
  int64_t total_ = 0;
  std::vector<int64_t> counts_;  ///< row-major C x C
};

/// \brief Append-only record of a training run; exports to CSV.
class TrainingHistory {
 public:
  struct Entry {
    int64_t step = 0;
    double loss = 0.0;
    double train_accuracy = 0.0;
    double eval_accuracy = -1.0;  ///< -1 when no eval happened this step
    double learning_rate = 0.0;
    double seconds_elapsed = 0.0;
  };

  void Record(const Entry& entry) { entries_.push_back(entry); }
  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// \brief Mean loss of the last `window` entries (all if fewer).
  double RecentMeanLoss(size_t window) const;

  /// \brief Best eval accuracy observed, or -1 when none recorded.
  double BestEvalAccuracy() const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace adr

#endif  // ADR_NN_METRICS_H_
