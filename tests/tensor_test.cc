// Unit tests for Shape, Tensor and tensor_ops.

#include <gtest/gtest.h>

#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

TEST(ShapeTest, RankAndDims) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.num_elements(), 24);
}

TEST(ShapeTest, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.num_elements(), 1);
}

TEST(ShapeTest, Strides) {
  Shape s({2, 3, 4});
  const std::vector<int64_t> strides = s.strides();
  EXPECT_EQ(strides, (std::vector<int64_t>{12, 4, 1}));
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(Shape({32, 3, 32, 32}).ToString(), "[32, 3, 32, 32]");
  EXPECT_EQ(Shape().ToString(), "[]");
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(Shape({3, 4}));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    EXPECT_EQ(t.at(i), 0.0f);
  }
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::Full(Shape({5}), 2.5f);
  EXPECT_EQ(t.at(0), 2.5f);
  EXPECT_EQ(t.at(4), 2.5f);
  Tensor ones = Tensor::Ones(Shape({2, 2}));
  EXPECT_EQ(Sum(ones), 4.0);
}

TEST(TensorTest, ConstructFromData) {
  Tensor t(Shape({2, 2}), {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, RowMajor2dAccessor) {
  Tensor t(Shape({2, 3}));
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.at(5), 7.0f);
}

TEST(TensorTest, Nchw4dAccessor) {
  Tensor t(Shape({2, 3, 4, 5}));
  t.at4(1, 2, 3, 4) = 9.0f;
  // flat = ((1*3 + 2)*4 + 3)*5 + 4 = 119
  EXPECT_EQ(t.at(119), 9.0f);
}

TEST(TensorTest, Reshape) {
  Tensor t(Shape({2, 6}));
  t.at(0, 5) = 3.0f;
  Tensor r = t.Reshaped(Shape({3, 4}));
  EXPECT_EQ(r.shape(), Shape({3, 4}));
  EXPECT_EQ(r.at(1, 1), 3.0f);  // same flat index 5
}

TEST(TensorTest, RandomGaussianDeterministic) {
  Rng a(42), b(42);
  Tensor x = Tensor::RandomGaussian(Shape({100}), &a);
  Tensor y = Tensor::RandomGaussian(Shape({100}), &b);
  EXPECT_EQ(MaxAbsDiff(x, y), 0.0f);
}

TEST(TensorTest, RandomUniformRange) {
  Rng rng(1);
  Tensor t = Tensor::RandomUniform(Shape({1000}), &rng, -2.0f, 3.0f);
  EXPECT_GE(-2.0f, -2.0f);
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    EXPECT_GE(t.at(i), -2.0f);
    EXPECT_LT(t.at(i), 3.0f);
  }
}

TEST(TensorTest, DebugStringTruncates) {
  Tensor t = Tensor::Ones(Shape({100}));
  const std::string s = t.DebugString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
}

TEST(TensorOpsTest, AddAndSub) {
  Tensor a(Shape({3}), {1.0f, 2.0f, 3.0f});
  Tensor b(Shape({3}), {10.0f, 20.0f, 30.0f});
  Tensor sum = Add(a, b);
  EXPECT_EQ(sum.at(2), 33.0f);
  Tensor diff = Sub(b, a);
  EXPECT_EQ(diff.at(0), 9.0f);
}

TEST(TensorOpsTest, ScaleAndAxpy) {
  Tensor a(Shape({2}), {1.0f, -2.0f});
  ScaleInPlace(3.0f, &a);
  EXPECT_EQ(a.at(0), 3.0f);
  EXPECT_EQ(a.at(1), -6.0f);
  Tensor b(Shape({2}), {1.0f, 1.0f});
  Axpy(0.5f, a, &b);
  EXPECT_EQ(b.at(0), 2.5f);
  EXPECT_EQ(b.at(1), -2.0f);
}

TEST(TensorOpsTest, AddRowBias) {
  Tensor m(Shape({2, 3}));
  Tensor bias(Shape({3}), {1.0f, 2.0f, 3.0f});
  AddRowBias(bias, &m);
  EXPECT_EQ(m.at(0, 0), 1.0f);
  EXPECT_EQ(m.at(1, 2), 3.0f);
}

TEST(TensorOpsTest, Reductions) {
  Tensor t(Shape({4}), {1.0f, -2.0f, 3.0f, -4.0f});
  EXPECT_EQ(Sum(t), -2.0);
  EXPECT_EQ(Mean(t), -0.5);
  EXPECT_EQ(MaxAbs(t), 4.0f);
  EXPECT_EQ(SquaredNorm(t), 30.0);
}

TEST(TensorOpsTest, ColumnSums) {
  Tensor m(Shape({2, 3}), {1.0f, 2.0f, 3.0f, 10.0f, 20.0f, 30.0f});
  Tensor sums(Shape({3}), {-1.0f, -1.0f, -1.0f});  // overwritten, not added to
  ColumnSumsInto(m.data(), 2, 3, sums.data());
  EXPECT_EQ(sums.at(0), 11.0f);
  EXPECT_EQ(sums.at(2), 33.0f);
}

TEST(TensorOpsTest, MaxAbsDiffAndAllClose) {
  Tensor a(Shape({3}), {1.0f, 2.0f, 3.0f});
  Tensor b(Shape({3}), {1.0f, 2.0f, 3.1f});
  EXPECT_NEAR(MaxAbsDiff(a, b), 0.1f, 1e-6f);
  EXPECT_FALSE(AllClose(a, b));
  EXPECT_TRUE(AllClose(a, b, /*rtol=*/0.1f, /*atol=*/0.1f));
  EXPECT_TRUE(AllClose(a, a));
}

TEST(TensorOpsTest, AllCloseShapeMismatch) {
  EXPECT_FALSE(AllClose(Tensor(Shape({2})), Tensor(Shape({3}))));
}

TEST(TensorOpsTest, ArgMaxRow) {
  Tensor m(Shape({2, 4}),
           {0.1f, 0.9f, 0.3f, 0.2f, 5.0f, 1.0f, 2.0f, 3.0f});
  EXPECT_EQ(ArgMaxRow(m, 0), 1);
  EXPECT_EQ(ArgMaxRow(m, 1), 0);
}

}  // namespace
}  // namespace adr
