// Tests for ConfusionMatrix, TrainingHistory and the LR schedules.

#include <gtest/gtest.h>

#include "nn/lr_schedule.h"
#include "nn/metrics.h"
#include "nn/optimizer.h"

namespace adr {
namespace {

TEST(ConfusionMatrixTest, CountsAndAccuracy) {
  ConfusionMatrix cm(3);
  cm.Add(0, 0);
  cm.Add(0, 1);
  cm.Add(1, 1);
  cm.Add(2, 2);
  EXPECT_EQ(cm.total(), 4);
  EXPECT_EQ(cm.count(0, 1), 1);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.75);
}

TEST(ConfusionMatrixTest, PrecisionRecall) {
  ConfusionMatrix cm(2);
  // Class 0: 3 true, 2 predicted correctly; one false positive for 0.
  cm.Add(0, 0);
  cm.Add(0, 0);
  cm.Add(0, 1);
  cm.Add(1, 0);
  cm.Add(1, 1);
  EXPECT_DOUBLE_EQ(cm.Recall(0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.Precision(0), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.Recall(1), 0.5);
  EXPECT_NEAR(cm.MacroRecall(), (2.0 / 3.0 + 0.5) / 2.0, 1e-12);
}

TEST(ConfusionMatrixTest, UnseenClassesHandled) {
  ConfusionMatrix cm(4);
  cm.Add(0, 0);
  EXPECT_EQ(cm.Recall(3), 0.0);
  EXPECT_EQ(cm.Precision(3), 0.0);
  EXPECT_DOUBLE_EQ(cm.MacroRecall(), 1.0);  // only class 0 observed
}

TEST(ConfusionMatrixTest, AddBatchUsesArgmax) {
  ConfusionMatrix cm(3);
  Tensor logits(Shape({2, 3}), {5, 1, 0, 0, 1, 5});
  cm.AddBatch(logits, {0, 1});
  EXPECT_EQ(cm.count(0, 0), 1);  // row 0 predicted 0, correct
  EXPECT_EQ(cm.count(1, 2), 1);  // row 1 predicted 2, wrong
}

TEST(ConfusionMatrixTest, ResetClears) {
  ConfusionMatrix cm(2);
  cm.Add(0, 0);
  cm.Reset();
  EXPECT_EQ(cm.total(), 0);
  EXPECT_EQ(cm.Accuracy(), 0.0);
}

TEST(TrainingHistoryTest, RecordsAndAggregates) {
  TrainingHistory history;
  for (int i = 0; i < 10; ++i) {
    TrainingHistory::Entry entry;
    entry.step = i;
    entry.loss = 10.0 - i;
    entry.eval_accuracy = i == 5 ? 0.8 : -1.0;
    history.Record(entry);
  }
  EXPECT_EQ(history.size(), 10u);
  EXPECT_DOUBLE_EQ(history.RecentMeanLoss(2), (1.0 + 2.0) / 2.0);
  EXPECT_DOUBLE_EQ(history.RecentMeanLoss(100), 5.5);
  EXPECT_DOUBLE_EQ(history.BestEvalAccuracy(), 0.8);
}

TEST(TrainingHistoryTest, EmptyHistoryDefaults) {
  TrainingHistory history;
  EXPECT_EQ(history.RecentMeanLoss(5), 0.0);
  EXPECT_EQ(history.BestEvalAccuracy(), -1.0);
}

TEST(LrScheduleTest, ConstantIsConstant) {
  ConstantLr schedule(0.1f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(0), 0.1f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(1000000), 0.1f);
}

TEST(LrScheduleTest, StepDecayHalvesAtIntervals) {
  StepDecayLr schedule(0.8f, 0.5f, 100);
  EXPECT_FLOAT_EQ(schedule.LearningRate(0), 0.8f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(99), 0.8f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(100), 0.4f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(250), 0.2f);
}

TEST(LrScheduleTest, WarmupCosineShape) {
  WarmupCosineLr schedule(1.0f, 10, 110, 0.1f);
  // Warmup is linear from peak/10 upward.
  EXPECT_NEAR(schedule.LearningRate(0), 0.1f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRate(9), 1.0f, 1e-6f);
  // Midpoint of the cosine phase sits halfway between peak and floor.
  EXPECT_NEAR(schedule.LearningRate(60), 0.55f, 1e-3f);
  // End and beyond clamp to the floor.
  EXPECT_NEAR(schedule.LearningRate(110), 0.1f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRate(100000), 0.1f, 1e-6f);
}

TEST(LrScheduleTest, MonotoneDecreasingAfterWarmup) {
  WarmupCosineLr schedule(1.0f, 5, 100);
  float prev = schedule.LearningRate(5);
  for (int64_t step = 6; step < 100; ++step) {
    const float cur = schedule.LearningRate(step);
    EXPECT_LE(cur, prev + 1e-7f);
    prev = cur;
  }
}

TEST(LrScheduleTest, ApplySetsOptimizerRate) {
  Sgd sgd(1.0f);
  StepDecayLr schedule(0.8f, 0.5f, 10);
  schedule.Apply(25, &sgd);
  EXPECT_FLOAT_EQ(sgd.learning_rate(), 0.2f);
}

}  // namespace
}  // namespace adr
