// Tests for the cache eviction policy and optimizer weight decay.

#include <gtest/gtest.h>

#include "core/cluster_cache.h"
#include "nn/optimizer.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace adr {
namespace {

TEST(CacheEvictionTest, EvictsUntouchedOldestBeyondCap) {
  // With no intervening hits, second-chance degenerates to FIFO: the
  // oldest untouched entry goes first.
  ClusterReuseCache cache;
  cache.set_max_entries(2);
  LshSignature s1, s2, s3;
  s1.SetBit(1);
  s2.SetBit(2);
  s3.SetBit(3);
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  cache.Insert(0, s1, rep, 1, out, 1);
  cache.Insert(0, s2, rep, 1, out, 1);
  EXPECT_EQ(cache.TotalEntries(), 2);
  cache.Insert(0, s3, rep, 1, out, 1);  // evicts s1
  EXPECT_EQ(cache.TotalEntries(), 2);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_FALSE(cache.Find(0, s1));
  EXPECT_TRUE(cache.Find(0, s2));
  EXPECT_TRUE(cache.Find(0, s3));
}

TEST(CacheEvictionTest, UnboundedByDefault) {
  ClusterReuseCache cache;
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  for (int i = 0; i < 100; ++i) {
    LshSignature sig;
    sig.SetBit(i % 128);
    sig.words[0] ^= static_cast<uint64_t>(i) << 32;
    cache.Insert(0, sig, rep, 1, out, 1);
  }
  EXPECT_EQ(cache.TotalEntries(), 100);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(CacheEvictionTest, ReinsertDoesNotDoubleCount) {
  ClusterReuseCache cache;
  cache.set_max_entries(4);
  LshSignature sig;
  sig.SetBit(5);
  const float rep[] = {0.0f};
  const float out1[] = {1.0f};
  const float out2[] = {2.0f};
  cache.Insert(0, sig, rep, 1, out1, 1);
  cache.Insert(0, sig, rep, 1, out2, 1);  // overwrite, not a new entry
  EXPECT_EQ(cache.TotalEntries(), 1);
  ClusterReuseCache::View view;
  ASSERT_TRUE(cache.Find(0, sig, &view));
  EXPECT_EQ(view.output[0], 2.0f);
}

TEST(CacheEvictionTest, MemoryAccounting) {
  ClusterReuseCache cache;
  LshSignature sig;
  const float rep[] = {1, 2, 3, 4};  // 16 bytes
  const float out[] = {1, 2};        // 8 bytes
  cache.Insert(0, sig, rep, 4, out, 2);
  EXPECT_EQ(cache.ResidentBytes(),
            static_cast<int64_t>(sizeof(LshSignature)) + 24);
}

TEST(WeightDecayTest, SgdShrinksParameters) {
  Tensor param(Shape({1}), {1.0f});
  Tensor grad(Shape({1}), {0.0f});  // isolate the decay term
  Sgd sgd(0.1f);
  sgd.set_weight_decay(0.5f);
  sgd.Step({&param}, {&grad});
  EXPECT_FLOAT_EQ(param.at(0), 1.0f * (1.0f - 0.1f * 0.5f));
}

TEST(WeightDecayTest, ZeroDecayIsNoOp) {
  Tensor param(Shape({1}), {2.0f});
  Tensor grad(Shape({1}), {0.0f});
  Adam adam(0.1f);
  adam.Step({&param}, {&grad});
  EXPECT_FLOAT_EQ(param.at(0), 2.0f);
}

TEST(WeightDecayTest, AdamDecayIsDecoupled) {
  // With zero gradient, AdamW-style decay still shrinks parameters.
  Tensor param(Shape({1}), {4.0f});
  Tensor grad(Shape({1}), {0.0f});
  Adam adam(0.01f);
  adam.set_weight_decay(1.0f);
  adam.Step({&param}, {&grad});
  EXPECT_FLOAT_EQ(param.at(0), 4.0f * 0.99f);
}

TEST(WeightDecayTest, MomentumDecayAccumulates) {
  Tensor param(Shape({1}), {1.0f});
  Tensor grad(Shape({1}), {0.0f});
  MomentumSgd opt(0.1f, 0.9f);
  opt.set_weight_decay(0.1f);
  opt.Step({&param}, {&grad});
  opt.Step({&param}, {&grad});
  EXPECT_FLOAT_EQ(param.at(0), 1.0f * 0.99f * 0.99f);
}

}  // namespace
}  // namespace adr
