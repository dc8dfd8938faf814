// Tests for the slab-backed cluster-reuse cache: differential
// bit-exactness of the forward against the original map-based
// implementation (tests/clustered_forward_reference.h), unbounded and
// under entry and byte budgets, batched-lookup consistency,
// second-chance eviction under entry and byte budgets, the
// zero-allocation steady state, and concurrent read thread safety (run
// under TSan via scripts/tsan_tests.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cluster_cache.h"
#include "core/reuse_conv2d.h"
#include "core/subvector_clustering.h"
#include "kernel_harness.h"
#include "tests/clustered_forward_reference.h"
#include "tests/matrix_reuse.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "tests/thread_count_guard.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace adr {
namespace {

using testutil::ThreadCountGuard;

LshSignature MakeSignature(uint64_t a, uint64_t b = 0) {
  LshSignature sig;
  sig.words[0] = a;
  sig.words[1] = b;
  return sig;
}

// Batches of noisy prototype rows: overlapping prototypes across batches
// produce a realistic mix of cache hits and misses every batch.
Tensor PrototypeBatch(int64_t n, int64_t k, int batch_index, Rng* rng) {
  Rng proto_rng(1234);  // prototypes shared by every batch
  Tensor protos = Tensor::RandomGaussian(Shape({8, k}), &proto_rng);
  Tensor x(Shape({n, k}));
  for (int64_t i = 0; i < n; ++i) {
    // Rotate through a batch-dependent window of 4 prototypes, so
    // consecutive batches share half their prototypes.
    const int64_t p = (i + batch_index) % 4 + (batch_index % 2) * 2;
    for (int64_t j = 0; j < k; ++j) {
      x.at(i, j) = protos.at(p, j) + rng->NextGaussian() * 0.002f;
    }
  }
  return x;
}

// The production forward through a ClusterReuseCache against
// ReferenceForward through a ReferenceClusterCache, both under the same
// budgets, over the same batch stream, at every backend and at 1 and 4
// threads. Outputs, hit decisions, counters, evictions, entries and
// resident bytes must agree exactly after every batch. Unbounded, nothing
// is evicted; each budget (entries, bytes, both) is small enough that
// every batch evicts.
TEST(ClusterCacheDifferentialTest, MatchesReferenceMapBitExactly) {
  constexpr int64_t kN = 48, kK = 20, kL = 10, kM = 7;
  constexpr int kBatches = 5;
  constexpr int64_t kEntryBytes =
      static_cast<int64_t>(sizeof(LshSignature)) +
      (kL + kM) * static_cast<int64_t>(sizeof(float));
  struct Budget {
    int64_t entries;
    int64_t bytes;
  };
  const Budget budgets[] = {{0, 0},
                            {6, 0},
                            {0, 5 * kEntryBytes + kEntryBytes / 2},
                            {7, 5 * kEntryBytes}};
  Rng rng(11);
  Tensor w = Tensor::RandomGaussian(Shape({kK, kM}), &rng);
  Tensor bias = Tensor::RandomGaussian(Shape({kM}), &rng);
  auto families = BlockLshFamilies::Create(kK, kL, 12, 3);
  ASSERT_TRUE(families.ok());

  ThreadCountGuard guard;
  for (const Budget& budget : budgets) {
    const bool bounded = budget.entries > 0 || budget.bytes > 0;
    for (const simd::Kernels* kernels : testutil::Backends()) {
      simd::ScopedKernelsOverride override_kernels(*kernels);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string(kernels->name) + " threads=" +
                     std::to_string(threads) + " max_entries=" +
                     std::to_string(budget.entries) +
                     " max_bytes=" + std::to_string(budget.bytes));
        ThreadPool::SetGlobalThreads(threads);
        ClusterReuseCache cache;
        ReferenceClusterCache reference;
        cache.set_max_entries(budget.entries);
        cache.set_max_bytes(budget.bytes);
        reference.set_max_entries(budget.entries);
        reference.set_max_bytes(budget.bytes);
        Rng data_rng(77);  // same batch stream for every configuration
        for (int batch = 0; batch < kBatches; ++batch) {
          const int64_t evictions_before = cache.evictions();
          const Tensor x = PrototypeBatch(kN, kK, batch, &data_rng);
          const MatrixForwardResult ours = MatrixForward(
              *families, x.data(), kN, w, &bias, kN, &cache);
          const ReferenceForwardResult expected = ReferenceForward(
              *families, x.data(), kN, w, &bias, kN, &reference);

          // Forward outputs: bitwise equal, not merely close.
          ASSERT_EQ(MaxAbsDiff(ours.y_rows, expected.y), 0.0f)
              << "batch " << batch;
          // Identical hit/miss decisions, cluster by cluster.
          ASSERT_EQ(ours.clustering.blocks.size(),
                    expected.clustering.blocks.size());
          for (size_t bi = 0; bi < expected.clustering.blocks.size(); ++bi) {
            ASSERT_EQ(ours.clustering.blocks[bi].reused_from_cache,
                      expected.clustering.blocks[bi].reused_from_cache)
                << "block " << bi << " batch " << batch;
          }
          ASSERT_EQ(ours.stats.clusters_reused, expected.clusters_reused);
          ASSERT_EQ(ours.stats.clusters_total, expected.clusters_total);
          ASSERT_EQ(cache.evictions(), reference.evictions());
          ASSERT_EQ(cache.TotalEntries(), reference.TotalEntries());
          ASSERT_EQ(cache.ResidentBytes(),
                    reference.ApproximateMemoryBytes());
          ASSERT_EQ(cache.evictions() > evictions_before, bounded)
              << "batch " << batch;
        }
        // Cumulative counters and R agree with the reference's.
        EXPECT_GT(cache.hits(), 0);
        EXPECT_EQ(cache.lookups(), reference.lookups());
        EXPECT_EQ(cache.hits(), reference.hits());
        EXPECT_DOUBLE_EQ(cache.ReuseRate(), reference.ReuseRate());
        if (budget.entries > 0) {
          EXPECT_LE(cache.TotalEntries(), budget.entries);
        }
        if (budget.bytes > 0) {
          EXPECT_LE(cache.ResidentBytes(), budget.bytes);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched lookup semantics.

TEST(ClusterCacheTest, FindBatchMatchesSequentialFind) {
  ClusterReuseCache cache;
  ClusterReuseCache probe;  // independent instance probed sequentially
  constexpr int64_t kLen = 6, kM = 3;
  std::vector<float> rep(kLen), out(kM);
  for (int i = 0; i < 200; ++i) {
    const LshSignature sig = MakeSignature(static_cast<uint64_t>(i) * 7 + 1,
                                           static_cast<uint64_t>(i));
    for (auto& v : rep) v = static_cast<float>(i);
    for (auto& v : out) v = static_cast<float>(-i);
    cache.Insert(0, sig, rep.data(), kLen, out.data(), kM);
    probe.Insert(0, sig, rep.data(), kLen, out.data(), kM);
  }

  // Every third signature misses.
  std::vector<LshSignature> queries;
  for (int i = 0; i < 300; ++i) {
    queries.push_back(i % 3 == 2
                          ? MakeSignature(0xdead0000 + static_cast<uint64_t>(i))
                          : MakeSignature(static_cast<uint64_t>(i % 200) * 7 + 1,
                                          static_cast<uint64_t>(i % 200)));
  }
  std::vector<int32_t> entries(queries.size(), -2);
  const int64_t hits =
      cache.FindBatch(0, queries.data(),
                      static_cast<int64_t>(queries.size()), entries.data());

  int64_t expected_hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ClusterReuseCache::View view;
    const bool hit = probe.Find(0, queries[i], &view);
    ASSERT_EQ(entries[i] >= 0, hit) << "query " << i;
    if (hit) ++expected_hits;
  }
  EXPECT_EQ(hits, expected_hits);
  EXPECT_EQ(cache.hits(), expected_hits);
  EXPECT_EQ(cache.lookups(), static_cast<int64_t>(queries.size()));

  // GatherHits copies exactly the hit payloads, leaving miss rows alone.
  std::vector<float> outputs(queries.size() * kM, 99.0f);
  std::vector<float> reps(queries.size() * kLen, 99.0f);
  cache.GatherHits(0, entries.data(), static_cast<int64_t>(queries.size()),
                   outputs.data(), kM, reps.data(), kLen);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (entries[i] < 0) {
      EXPECT_EQ(outputs[i * kM], 99.0f);
      continue;
    }
    const float id = static_cast<float>(i % 200);
    EXPECT_EQ(reps[i * kLen], id) << "query " << i;
    EXPECT_EQ(outputs[i * kM], -id) << "query " << i;
  }
}

TEST(ClusterCacheTest, FindBatchOnEmptyCacheCountsLookups) {
  ClusterReuseCache cache;
  std::vector<LshSignature> queries(10, MakeSignature(42));
  std::vector<int32_t> entries(10, 0);
  EXPECT_EQ(cache.FindBatch(3, queries.data(), 10, entries.data()), 0);
  for (int32_t e : entries) EXPECT_EQ(e, -1);
  EXPECT_EQ(cache.lookups(), 10);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(ClusterCacheTest, FindBatchDecisionsAreThreadCountIndependent) {
  ThreadCountGuard guard;
  ClusterReuseCache cache;
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  for (int i = 0; i < 500; ++i) {
    cache.Insert(0, MakeSignature(static_cast<uint64_t>(i) * 11 + 3), rep, 1,
                 out, 1);
  }
  std::vector<LshSignature> queries;
  for (int i = 0; i < 2000; ++i) {
    queries.push_back(MakeSignature(static_cast<uint64_t>(i) * 11 + 3));
  }
  std::vector<std::vector<int32_t>> results;
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    results.emplace_back(queries.size(), -2);
    cache.FindBatch(0, queries.data(), static_cast<int64_t>(queries.size()),
                    results.back().data());
  }
  EXPECT_EQ(results[0], results[1]);
}

// ---------------------------------------------------------------------------
// Eviction.

TEST(ClusterCacheEvictionTest, ByteBudgetBoundsResidentBytes) {
  ClusterReuseCache cache;
  // One entry: (4 + 2) floats + one signature = 24 + 16 = 40 bytes.
  const float rep[] = {1, 2, 3, 4};
  const float out[] = {5, 6};
  const int64_t entry_bytes =
      6 * static_cast<int64_t>(sizeof(float)) +
      static_cast<int64_t>(sizeof(LshSignature));
  cache.set_max_bytes(2 * entry_bytes + entry_bytes / 2);  // fits 2, not 3
  for (int i = 1; i <= 5; ++i) {
    cache.Insert(0, MakeSignature(static_cast<uint64_t>(i)), rep, 4, out, 2);
  }
  EXPECT_EQ(cache.TotalEntries(), 2);
  EXPECT_EQ(cache.ResidentBytes(), 2 * entry_bytes);
  EXPECT_EQ(cache.evictions(), 3);
  EXPECT_LE(cache.ResidentBytes(), cache.max_bytes());
}

TEST(ClusterCacheEvictionTest, SecondChanceKeepsRecentlyHitEntry) {
  ClusterReuseCache cache;
  cache.set_max_entries(3);
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  const LshSignature a = MakeSignature(1), b = MakeSignature(2),
                     c = MakeSignature(3), d = MakeSignature(4),
                     e = MakeSignature(5);
  cache.Insert(0, a, rep, 1, out, 1);
  cache.Insert(0, b, rep, 1, out, 1);
  cache.Insert(0, c, rep, 1, out, 1);
  // Over budget: every entry spends its second chance, then the clock
  // wraps and evicts the oldest untouched entry (a).
  cache.Insert(0, d, rep, 1, out, 1);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_FALSE(cache.Find(0, a));

  // Touch b: the next eviction scan must spare it and take c instead.
  EXPECT_TRUE(cache.Find(0, b));
  cache.Insert(0, e, rep, 1, out, 1);
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_TRUE(cache.Find(0, b)) << "recently-hit entry was evicted";
  EXPECT_FALSE(cache.Find(0, c)) << "untouched entry should have been evicted";
  EXPECT_TRUE(cache.Find(0, d));
  EXPECT_TRUE(cache.Find(0, e));
  EXPECT_EQ(cache.TotalEntries(), 3);
}

TEST(ClusterCacheEvictionTest, EntryBudgetHoldsAcrossBlocks) {
  ClusterReuseCache cache;
  cache.set_max_entries(16);
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  for (int i = 0; i < 200; ++i) {
    cache.Insert(i % 3, MakeSignature(static_cast<uint64_t>(i) + 1), rep, 1,
                 out, 1);
    EXPECT_LE(cache.TotalEntries(), 16);
  }
  EXPECT_EQ(cache.TotalEntries(), 16);
  EXPECT_EQ(cache.evictions(), 200 - 16);
}

TEST(ClusterCacheEvictionTest, ClearResetsCountersAndKeepsBudgets) {
  ClusterReuseCache cache;
  cache.set_max_entries(2);
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  for (int i = 0; i < 8; ++i) {
    cache.Insert(0, MakeSignature(static_cast<uint64_t>(i) + 1), rep, 1, out,
                 1);
  }
  cache.Find(0, MakeSignature(1));
  EXPECT_GT(cache.evictions(), 0);

  cache.Clear();
  const ClusterReuseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.resident_bytes, 0);
  EXPECT_EQ(stats.lookups, 0);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.inserts, 0);
  for (int64_t bucket : stats.probe_counts) EXPECT_EQ(bucket, 0);
  // Budgets survive and keep biting.
  EXPECT_EQ(cache.max_entries(), 2);
  for (int i = 0; i < 8; ++i) {
    cache.Insert(0, MakeSignature(static_cast<uint64_t>(i) + 1), rep, 1, out,
                 1);
  }
  EXPECT_EQ(cache.TotalEntries(), 2);
}

// Budgeted differential: the slab cache and the reference, fed the same
// stream of lookups and single/batched inserts over three blocks, must
// agree on every hit, every payload and every eviction. Block 0 fills
// first, so its table grows through three rehashes (64 -> 128 -> 256 ->
// 512 slots) before the first eviction, and every later eviction has to
// find entries that moved in those rehashes.
TEST(ClusterCacheEvictionTest, BudgetsMatchReferenceAfterRehashes) {
  constexpr int64_t kLength = 3, kM = 2;
  const int64_t entry_bytes =
      (kLength + kM) * static_cast<int64_t>(sizeof(float)) +
      static_cast<int64_t>(sizeof(LshSignature));
  struct Budget {
    int64_t entries;
    int64_t bytes;
  };
  const Budget budgets[] = {{200, 0},
                            {0, 200 * entry_bytes + entry_bytes / 2},
                            {220, 200 * entry_bytes}};
  // Payload of (block, key) at insert `version`; distinct per version so
  // an overwrite or a mixed-up entry shows.
  const auto payload = [](int64_t block, uint64_t key, int version) {
    std::vector<float> v(static_cast<size_t>(kLength + kM));
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(block * 100000 + static_cast<int64_t>(key)) +
             0.25f * static_cast<float>(i) + 1000.0f * version;
    }
    return v;
  };
  for (const Budget& budget : budgets) {
    ClusterReuseCache cache;
    ReferenceClusterCache reference;
    cache.set_max_entries(budget.entries);
    cache.set_max_bytes(budget.bytes);
    reference.set_max_entries(budget.entries);
    reference.set_max_bytes(budget.bytes);
    Rng rng(99);
    int version = 0;
    // One round: look up `count` keys of `block` drawn from [0, key_range)
    // and insert the misses (plus a re-insert of one hit) as one batch or
    // one by one.
    const auto round = [&](int64_t block, int64_t count, uint64_t key_base,
                           uint64_t key_range, bool batched) {
      ++version;
      std::vector<LshSignature> sigs;
      for (int64_t i = 0; i < count; ++i) {
        sigs.push_back(MakeSignature(key_base + rng.NextBounded(key_range),
                                     static_cast<uint64_t>(block) + 1));
      }
      std::vector<int32_t> entries(sigs.size());
      cache.FindBatch(block, sigs.data(), static_cast<int64_t>(sigs.size()),
                      entries.data());
      std::vector<LshSignature> to_insert;
      std::vector<ReferenceClusterCache::Entry> ref_entries;
      std::vector<float> reps, outs;
      for (size_t i = 0; i < sigs.size(); ++i) {
        const ReferenceClusterCache::Entry* expected =
            reference.Find(block, sigs[i]);
        ASSERT_EQ(entries[i] >= 0, expected != nullptr)
            << "hit/miss differs, round " << version << " i " << i;
        if (expected != nullptr) {
          ClusterReuseCache::View view;
          ASSERT_TRUE(cache.Find(block, sigs[i], &view));
          reference.Find(block, sigs[i]);  // keep the lookup counts equal
          ASSERT_TRUE(std::equal(expected->representative.begin(),
                                 expected->representative.end(),
                                 view.representative));
          ASSERT_TRUE(std::equal(expected->output.begin(),
                                 expected->output.end(), view.output));
        }
        const bool seen = std::find(to_insert.begin(), to_insert.end(),
                                    sigs[i]) != to_insert.end();
        if (seen || (expected != nullptr && i % 7 != 0)) continue;
        const std::vector<float> v =
            payload(block, sigs[i].words[0], version);
        to_insert.push_back(sigs[i]);
        ReferenceClusterCache::Entry entry;
        entry.representative.assign(v.begin(), v.begin() + kLength);
        entry.output.assign(v.begin() + kLength, v.end());
        ref_entries.push_back(entry);
        reps.insert(reps.end(), v.begin(), v.begin() + kLength);
        outs.insert(outs.end(), v.begin() + kLength, v.end());
      }
      if (batched) {
        std::vector<int32_t> ids(to_insert.size());
        for (size_t i = 0; i < ids.size(); ++i) {
          ids[i] = static_cast<int32_t>(i);
        }
        cache.InsertBatch(block, to_insert.data(), ids.data(),
                          static_cast<int64_t>(ids.size()), reps.data(),
                          kLength, outs.data(), kM);
        reference.InsertBatch(block, to_insert, std::move(ref_entries));
      } else {
        for (size_t i = 0; i < to_insert.size(); ++i) {
          cache.Insert(block, to_insert[i], reps.data() + i * kLength,
                       kLength, outs.data() + i * kM, kM);
          reference.Insert(block, to_insert[i], std::move(ref_entries[i]));
        }
      }
      ASSERT_EQ(cache.evictions(), reference.evictions())
          << "round " << version;
      ASSERT_EQ(cache.TotalEntries(), reference.TotalEntries());
      ASSERT_EQ(cache.ResidentBytes(), reference.ApproximateMemoryBytes());
    };

    // Fill block 0 with 190 distinct keys (key_range 1 draws exactly
    // `key`): three rehashes, no eviction.
    for (uint64_t key = 0; key < 190; ++key) {
      ASSERT_NO_FATAL_FAILURE(round(0, 1, key, 1, /*batched=*/key % 2 == 0));
    }
    ASSERT_EQ(cache.evictions(), 0);
    ASSERT_GE(cache.GetStats().slots, 512);
    // Mixed traffic over all three blocks, well past the budget.
    for (int r = 0; r < 120; ++r) {
      ASSERT_NO_FATAL_FAILURE(round(r % 3, 40, 0, 400, r % 2 == 0));
    }
    EXPECT_GT(cache.evictions(), 500);
    EXPECT_EQ(cache.lookups(), reference.lookups());
    EXPECT_EQ(cache.hits(), reference.hits());
    if (budget.entries > 0) {
      EXPECT_LE(cache.TotalEntries(), budget.entries);
    }
    if (budget.bytes > 0) {
      EXPECT_LE(cache.ResidentBytes(), budget.bytes);
    }
  }
}

TEST(ClusterCacheTest, StatsCountProbesAndSlots) {
  ClusterReuseCache cache;
  const float rep[] = {1.0f};
  const float out[] = {2.0f};
  for (int i = 0; i < 40; ++i) {
    cache.Insert(0, MakeSignature(static_cast<uint64_t>(i) + 1), rep, 1, out,
                 1);
  }
  for (int i = 0; i < 40; ++i) {
    cache.Find(0, MakeSignature(static_cast<uint64_t>(i) + 1));
  }
  const ClusterReuseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 40);
  EXPECT_EQ(stats.inserts, 40);
  EXPECT_EQ(stats.hits, 40);
  EXPECT_EQ(stats.lookups, 40);
  // Power-of-two capacity with load <= 70%.
  EXPECT_GE(stats.slots, 64);
  EXPECT_EQ(stats.slots & (stats.slots - 1), 0);
  int64_t probes = 0;
  for (int64_t bucket : stats.probe_counts) probes += bucket;
  EXPECT_EQ(probes, stats.lookups);
  // Short chains: at this load factor most probes must terminate fast.
  EXPECT_GT(stats.probe_counts[0], 0);
}

// ---------------------------------------------------------------------------
// Zero heap allocations at steady state.

TEST(ClusterCacheTest, WarmCacheStopsAllocating) {
  ClusterReuseCache cache;
  cache.set_max_entries(256);
  std::vector<float> rep(32, 1.0f), out(16, 2.0f);
  // Warm: fill well past the budget so slab, table, and free list have
  // all reached their steady capacity.
  for (int i = 0; i < 2000; ++i) {
    cache.Insert(0, MakeSignature(static_cast<uint64_t>(i) + 1, 9), rep.data(),
                 32, out.data(), 16);
  }
  const int64_t warm_allocs = cache.alloc_events();
  EXPECT_GT(warm_allocs, 0);

  // Steady state: every insert recycles an evicted entry, every lookup is
  // read-only — zero cache-side allocations.
  std::vector<int32_t> entries(64);
  std::vector<LshSignature> queries(64);
  for (int step = 0; step < 50; ++step) {
    for (int i = 0; i < 64; ++i) {
      queries[static_cast<size_t>(i)] =
          MakeSignature(static_cast<uint64_t>(2000 + step * 64 + i), 9);
    }
    cache.FindBatch(0, queries.data(), 64, entries.data());
    for (const LshSignature& sig : queries) {
      cache.Insert(0, sig, rep.data(), 32, out.data(), 16);
    }
    ASSERT_EQ(cache.alloc_events(), warm_allocs) << "allocation at step "
                                                 << step;
  }
}

TEST(ClusterCacheTest, SteadyStateTrainingPerformsNoCacheAllocations) {
  // Mirrors workspace_arena_test: a CR-enabled layer fed identical
  // batches must stop touching the heap from the cache after the first
  // step populates it.
  Conv2dConfig config;
  config.in_channels = 3;
  config.out_channels = 8;
  config.kernel = 3;
  config.stride = 1;
  config.pad = 1;
  config.in_height = 8;
  config.in_width = 8;
  ReuseConfig reuse;
  reuse.sub_vector_length = 9;
  reuse.num_hashes = 10;
  reuse.scope = ClusterScope::kAcrossBatch;

  Rng rng(41);
  ReuseConv2d layer("cache_steady", config, reuse, &rng);
  Rng data_rng(42);
  const Tensor input = Tensor::RandomGaussian(Shape({2, 3, 8, 8}), &data_rng);
  const Tensor grad_out =
      Tensor::RandomGaussian(Shape({2, 8, 8, 8}), &data_rng);

  layer.Forward(input, /*training=*/true);
  layer.Backward(grad_out);
  ASSERT_NE(layer.cache(), nullptr);
  const int64_t warm_allocs = layer.cache()->alloc_events();
  EXPECT_GT(warm_allocs, 0);

  for (int step = 0; step < 4; ++step) {
    layer.Forward(input, /*training=*/true);
    layer.Backward(grad_out);
    EXPECT_EQ(layer.cache()->alloc_events(), warm_allocs)
        << "cache-side allocation at step " << step;
  }
  EXPECT_GT(layer.cache()->hits(), 0);
}

// ---------------------------------------------------------------------------
// Concurrency: FindBatch/Find are const and safe from many threads. The
// global pool is pinned to one thread so each raw thread's ParallelFor
// runs inline (ThreadPool::Run does not support concurrent external
// callers); TSan then checks the cache itself, not the pool.

TEST(ClusterCacheTest, ConcurrentFindBatchIsThreadSafe) {
  ThreadCountGuard guard;
  ThreadPool::SetGlobalThreads(1);

  ClusterReuseCache cache;
  // A budget (never exceeded here) keeps recency stamping active so the
  // concurrent readers exercise the atomic stamp stores under TSan.
  cache.set_max_entries(4096);
  std::vector<float> rep(8, 1.0f), out(4, 2.0f);
  constexpr int kResident = 512;
  for (int i = 0; i < kResident; ++i) {
    cache.Insert(0, MakeSignature(static_cast<uint64_t>(i) + 1), rep.data(),
                 8, out.data(), 4);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  constexpr int kQueries = 256;  // half hit, half miss
  std::vector<std::thread> workers;
  std::vector<int64_t> per_thread_hits(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<LshSignature> queries(kQueries);
      std::vector<int32_t> entries(kQueries);
      std::vector<float> outputs(kQueries * 4);
      std::vector<float> reps(kQueries * 8);
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kQueries; ++i) {
          const uint64_t key = static_cast<uint64_t>((i * kThreads + t + round) %
                                                     (2 * kResident));
          queries[static_cast<size_t>(i)] = MakeSignature(key + 1);
        }
        per_thread_hits[static_cast<size_t>(t)] +=
            cache.FindBatch(0, queries.data(), kQueries, entries.data());
        cache.GatherHits(0, entries.data(), kQueries, outputs.data(), 4,
                         reps.data(), 8);
        ClusterReuseCache::View view;
        cache.Find(0, queries[0], &view);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  // Signatures 1..kResident hit, the rest miss; totals must balance.
  int64_t expected_hits = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_hits += per_thread_hits[static_cast<size_t>(t)];
  }
  EXPECT_GT(expected_hits, 0);
  EXPECT_GE(cache.hits(), expected_hits);  // + the per-round Find hits
  EXPECT_EQ(cache.lookups(),
            static_cast<int64_t>(kThreads) * kRounds * (kQueries + 1));
  EXPECT_EQ(cache.TotalEntries(), kResident);  // structurally untouched
}

}  // namespace
}  // namespace adr
