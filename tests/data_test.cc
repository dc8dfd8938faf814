// Tests for the synthetic dataset and DataLoader.

#include <set>

#include <gtest/gtest.h>

#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "tensor/tensor_ops.h"

namespace adr {
namespace {

SyntheticImageConfig SmallConfig() {
  SyntheticImageConfig config = SyntheticImageConfig::CifarLike(200, 42);
  config.height = 16;
  config.width = 16;
  config.num_classes = 4;
  return config;
}

TEST(SyntheticImagesTest, ValidatesConfig) {
  SyntheticImageConfig config = SmallConfig();
  config.num_classes = 1;
  EXPECT_FALSE(SyntheticImageDataset::Create(config).ok());
  config = SmallConfig();
  config.num_samples = 0;
  EXPECT_FALSE(SyntheticImageDataset::Create(config).ok());
  config = SmallConfig();
  config.max_translation = 100;
  EXPECT_FALSE(SyntheticImageDataset::Create(config).ok());
  config = SmallConfig();
  config.blob_radius_fraction = 0.0f;
  EXPECT_FALSE(SyntheticImageDataset::Create(config).ok());
  EXPECT_TRUE(SyntheticImageDataset::Create(SmallConfig()).ok());
}

TEST(SyntheticImagesTest, ShapeAndLabels) {
  auto dataset = SyntheticImageDataset::Create(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->size(), 200);
  EXPECT_EQ(dataset->num_classes(), 4);
  EXPECT_EQ(dataset->image_shape(), Shape({3, 16, 16}));
  std::vector<float> image(3 * 16 * 16);
  int label = -1;
  dataset->Get(0, image.data(), &label);
  EXPECT_EQ(label, 0);
  dataset->Get(5, image.data(), &label);
  EXPECT_EQ(label, 1);  // labels cycle modulo num_classes
}

TEST(SyntheticImagesTest, DeterministicPerIndex) {
  auto dataset = SyntheticImageDataset::Create(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  std::vector<float> a(3 * 16 * 16), b(3 * 16 * 16);
  int la = 0, lb = 0;
  dataset->Get(17, a.data(), &la);
  dataset->Get(17, b.data(), &lb);
  EXPECT_EQ(a, b);
  EXPECT_EQ(la, lb);
}

TEST(SyntheticImagesTest, DifferentIndicesDiffer) {
  auto dataset = SyntheticImageDataset::Create(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  std::vector<float> a(3 * 16 * 16), b(3 * 16 * 16);
  int label = 0;
  dataset->Get(0, a.data(), &label);
  dataset->Get(4, b.data(), &label);  // same class, different sample
  EXPECT_NE(a, b);
}

TEST(SyntheticImagesTest, SameClassMoreSimilarThanCrossClass) {
  SyntheticImageConfig config = SmallConfig();
  config.structured_noise = 0.1f;
  config.white_noise = 0.01f;
  auto dataset = SyntheticImageDataset::Create(config);
  ASSERT_TRUE(dataset.ok());
  const int64_t elems = 3 * 16 * 16;
  std::vector<float> a(elems), b(elems), c(elems);
  int label = 0;
  dataset->Get(0, a.data(), &label);   // class 0
  dataset->Get(4, b.data(), &label);   // class 0
  dataset->Get(1, c.data(), &label);   // class 1
  double same = 0.0, cross = 0.0;
  for (int64_t i = 0; i < elems; ++i) {
    same += (a[i] - b[i]) * (a[i] - b[i]);
    cross += (a[i] - c[i]) * (a[i] - c[i]);
  }
  EXPECT_LT(same, cross);
}

TEST(SyntheticImagesTest, ImageNetLikePresetIsLazy) {
  // 224x224 images with many samples must construct instantly (templates
  // only) and produce valid samples on demand.
  auto dataset = SyntheticImageDataset::Create(
      SyntheticImageConfig::ImageNetLike(100000, 10, 7));
  ASSERT_TRUE(dataset.ok());
  std::vector<float> image(3 * 224 * 224);
  int label = -1;
  dataset->Get(99999, image.data(), &label);
  EXPECT_EQ(label, 99999 % 10);
}

// FNV-1a over the float bits of `count` images from `index0` on, with
// their labels.
uint64_t HashImages(const SyntheticImageDataset& dataset, int64_t index0,
                    int64_t count) {
  const Shape shape = dataset.image_shape();
  std::vector<float> image(static_cast<size_t>(shape.num_elements()));
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (int64_t i = index0; i < index0 + count; ++i) {
    int label = -1;
    dataset.Get(i, image.data(), &label);
    mix(image.data(), image.size() * sizeof(float));
    mix(&label, sizeof(label));
  }
  return h;
}

// The generator's bits are part of every training result: these hashes
// were taken before the generator's loops were restructured and pin that
// the restructuring changed no bit. Covers negative and positive
// translations (wrap-around on both sides), structured-noise blobs and
// white noise at the step benchmark's AlexNet shape, a small config, and
// an 11-channel config.
TEST(SyntheticImagesTest, GeneratorBitsArePinned) {
  SyntheticImageConfig alexnet = SyntheticImageConfig::CifarLike(4000, 111);
  alexnet.num_classes = 12;
  alexnet.height = 67;
  alexnet.width = 67;
  alexnet.max_translation = 8;
  alexnet.blob_radius_fraction = 0.35f;
  auto large = SyntheticImageDataset::Create(alexnet);
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(HashImages(*large, 1000, 30), 0xfb670b356e09acd8ULL);

  SyntheticImageConfig small = SmallConfig();
  small.height = 9;
  small.width = 13;
  small.max_translation = 4;
  auto tiny = SyntheticImageDataset::Create(small);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(HashImages(*tiny, 0, 30), 0xe84ca3b35597590fULL);

  // More channels than share one falloff evaluation.
  SyntheticImageConfig wide = SyntheticImageConfig::CifarLike(64, 7);
  wide.channels = 11;
  wide.height = 12;
  wide.width = 10;
  wide.num_classes = 3;
  auto many = SyntheticImageDataset::Create(wide);
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(HashImages(*many, 0, 30), 0x56de20aa54f274e3ULL);
}

TEST(DataLoaderTest, BatchShapeAndLabels) {
  auto dataset = SyntheticImageDataset::Create(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  DataLoader loader(&*dataset, 16, /*shuffle=*/true, 1);
  Batch batch;
  loader.Next(&batch);
  EXPECT_EQ(batch.images.shape(), Shape({16, 3, 16, 16}));
  EXPECT_EQ(batch.size(), 16);
  for (int label : batch.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(DataLoaderTest, EpochCountsAdvance) {
  auto dataset = SyntheticImageDataset::Create(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  DataLoader loader(&*dataset, 64, true, 2);
  EXPECT_EQ(loader.batches_per_epoch(), 3);  // 200 / 64
  Batch batch;
  for (int i = 0; i < 3; ++i) loader.Next(&batch);
  EXPECT_EQ(loader.epoch(), 0);
  loader.Next(&batch);  // wraps: the partial tail batch is dropped
  EXPECT_EQ(loader.epoch(), 1);
  loader.Reset();
  EXPECT_EQ(loader.epoch(), 0);
}

TEST(DataLoaderTest, ShuffleChangesOrderButNotMultiset) {
  auto dataset = SyntheticImageDataset::Create(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  DataLoader shuffled(&*dataset, 200, true, 3);
  DataLoader ordered(&*dataset, 200, false, 3);
  Batch a, b;
  shuffled.Next(&a);
  ordered.Next(&b);
  EXPECT_NE(a.labels, b.labels);
  std::multiset<int> ma(a.labels.begin(), a.labels.end());
  std::multiset<int> mb(b.labels.begin(), b.labels.end());
  EXPECT_EQ(ma, mb);
}

TEST(DataLoaderTest, UnshuffledIsSequential) {
  auto dataset = SyntheticImageDataset::Create(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  DataLoader loader(&*dataset, 8, false, 4);
  Batch batch;
  loader.Next(&batch);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(batch.labels[static_cast<size_t>(i)], i % 4);
  }
}

TEST(MakeBatchTest, SlicesRange) {
  auto dataset = SyntheticImageDataset::Create(SmallConfig());
  ASSERT_TRUE(dataset.ok());
  const Batch batch = MakeBatch(*dataset, 10, 6);
  EXPECT_EQ(batch.size(), 6);
  EXPECT_EQ(batch.labels[0], 10 % 4);
  EXPECT_EQ(batch.labels[5], 15 % 4);
}

}  // namespace
}  // namespace adr
