// The original map-based cluster-reuse cache, kept as the behavioral
// reference for the slab-backed ClusterReuseCache in core/cluster_cache.h:
//
//   - tests/cluster_cache_test.cc runs both caches over the same batch
//     stream and requires identical hit/miss decisions, counters, R, and
//     forward outputs at unbounded capacity, and identical payloads and
//     evictions under entry and byte budgets;
//   - bench/micro_reuse.cc's BM_ReferenceCacheLookup is the baseline the
//     ≥3x lookup-speedup acceptance bar is measured against.
//
// Budgets follow the production policy written out over plain
// containers: entry ids per block (recycled last-freed first), a
// generation bumped per Insert/InsertBatch call, recency stamps set by
// inserts and (while a budget is set) by hits, and a second-chance clock
// over (block, entry id) that runs after each insert call. None of the
// open-addressing table, rehashing or backward-shift deletion it checks
// is shared.
//
// Not used on any production path — the naive containers (one
// unordered_map node plus two heap vectors per entry, full-walk
// TotalEntries/ApproximateMemoryBytes) are exactly what the slab design
// replaces. Header-only so only test/bench targets pay for it.

#ifndef ADR_CORE_CLUSTER_CACHE_REFERENCE_H_
#define ADR_CORE_CLUSTER_CACHE_REFERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clustering/lsh.h"
#include "util/check.h"

namespace adr {

class ReferenceClusterCache {
 public:
  struct Entry {
    std::vector<float> representative;  ///< length L_I
    std::vector<float> output;          ///< length M
  };

  /// \brief Looks up a signature in block `block`; nullptr on miss.
  const Entry* Find(int64_t block, const LshSignature& signature) const {
    ADR_CHECK_GE(block, 0);
    ++lookups_;
    if (static_cast<size_t>(block) >= blocks_.size()) return nullptr;
    const BlockMap& map = blocks_[static_cast<size_t>(block)].map;
    const auto it = map.find(signature);
    if (it == map.end()) return nullptr;
    ++hits_;
    if (Budgeted()) it->second.stamp = generation_;
    return &it->second.entry;
  }

  /// \brief Inserts (overwrites) an entry, then evicts down to budget.
  void Insert(int64_t block, const LshSignature& signature, Entry entry) {
    ++generation_;
    InsertOne(block, signature, std::move(entry));
    EvictIfNeeded();
  }

  /// \brief Inserts entries in order as one call (one generation, one
  /// eviction pass at the end), like ClusterReuseCache::InsertBatch.
  void InsertBatch(int64_t block, const std::vector<LshSignature>& signatures,
                   std::vector<Entry> entries) {
    ADR_CHECK_EQ(signatures.size(), entries.size());
    ++generation_;
    for (size_t i = 0; i < signatures.size(); ++i) {
      InsertOne(block, signatures[i], std::move(entries[i]));
    }
    EvictIfNeeded();
  }

  void Clear() {
    blocks_.clear();
    lookups_ = 0;
    hits_ = 0;
    evictions_ = 0;
    live_entries_ = 0;
    live_bytes_ = 0;
    generation_ = 1;
    clock_block_ = 0;
  }

  int64_t TotalEntries() const {
    int64_t total = 0;
    for (const BlockState& state : blocks_) {
      total += static_cast<int64_t>(state.map.size());
    }
    return total;
  }

  /// \brief Bound on the entry count; 0 = unbounded.
  void set_max_entries(int64_t max_entries) { max_entries_ = max_entries; }
  int64_t max_entries() const { return max_entries_; }
  /// \brief Bound on ApproximateMemoryBytes(); 0 = unbounded.
  void set_max_bytes(int64_t max_bytes) { max_bytes_ = max_bytes; }
  int64_t evictions() const { return evictions_; }

  int64_t ApproximateMemoryBytes() const {
    int64_t bytes = 0;
    for (const BlockState& state : blocks_) {
      for (const auto& [signature, record] : state.map) {
        bytes += EntryBytes(record.entry);
      }
    }
    return bytes;
  }

  int64_t lookups() const { return lookups_; }
  int64_t hits() const { return hits_; }
  double ReuseRate() const {
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(hits_) /
                               static_cast<double>(lookups_);
  }

 private:
  struct Record {
    Entry entry;
    int32_t id = -1;
    mutable uint64_t stamp = 0;  ///< generation of the last insert or hit
    uint64_t visited = 0;        ///< stamp the clock last granted a pass
  };
  using BlockMap =
      std::unordered_map<LshSignature, Record, LshSignatureHash>;
  struct BlockState {
    BlockMap map;
    std::vector<LshSignature> id_signature;  ///< by entry id
    std::vector<char> id_live;
    std::vector<int32_t> free_ids;
    int64_t clock_hand = 0;
  };

  static int64_t EntryBytes(const Entry& entry) {
    return static_cast<int64_t>(sizeof(LshSignature)) +
           static_cast<int64_t>((entry.representative.size() +
                                 entry.output.size()) *
                                sizeof(float));
  }

  bool Budgeted() const { return max_entries_ > 0 || max_bytes_ > 0; }

  bool OverBudget() const {
    return (max_entries_ > 0 && live_entries_ > max_entries_) ||
           (max_bytes_ > 0 && live_bytes_ > max_bytes_);
  }

  void InsertOne(int64_t block, const LshSignature& signature, Entry entry) {
    ADR_CHECK_GE(block, 0);
    if (static_cast<size_t>(block) >= blocks_.size()) {
      blocks_.resize(static_cast<size_t>(block) + 1);
    }
    BlockState& state = blocks_[static_cast<size_t>(block)];
    auto it = state.map.find(signature);
    if (it == state.map.end()) {
      int32_t id = -1;
      if (state.free_ids.empty()) {
        id = static_cast<int32_t>(state.id_signature.size());
        state.id_signature.push_back(signature);
        state.id_live.push_back(1);
      } else {
        id = state.free_ids.back();
        state.free_ids.pop_back();
        state.id_signature[static_cast<size_t>(id)] = signature;
        state.id_live[static_cast<size_t>(id)] = 1;
      }
      it = state.map.emplace(signature, Record{}).first;
      it->second.id = id;
      // A new entry gets one pass before it can be evicted.
      it->second.visited = generation_ - 1;
      ++live_entries_;
      live_bytes_ += EntryBytes(entry);
    }
    it->second.entry = std::move(entry);
    it->second.stamp = generation_;
  }

  void EvictIfNeeded() {
    while (OverBudget() && live_entries_ > 0) {
      BlockState& state = blocks_[static_cast<size_t>(clock_block_)];
      const int64_t ids = static_cast<int64_t>(state.id_signature.size());
      if (state.map.empty() || state.clock_hand >= ids) {
        state.clock_hand = 0;
        clock_block_ =
            (clock_block_ + 1) % static_cast<int64_t>(blocks_.size());
        continue;
      }
      const int64_t id = state.clock_hand++;
      if (!state.id_live[static_cast<size_t>(id)]) continue;
      const auto it =
          state.map.find(state.id_signature[static_cast<size_t>(id)]);
      ADR_CHECK(it != state.map.end());
      Record& record = it->second;
      if (record.stamp != record.visited) {
        record.visited = record.stamp;
        continue;
      }
      live_bytes_ -= EntryBytes(record.entry);
      --live_entries_;
      state.id_live[static_cast<size_t>(id)] = 0;
      state.free_ids.push_back(static_cast<int32_t>(id));
      state.map.erase(it);
      ++evictions_;
    }
  }

  std::vector<BlockState> blocks_;
  mutable int64_t lookups_ = 0;
  mutable int64_t hits_ = 0;
  int64_t max_entries_ = 0;
  int64_t max_bytes_ = 0;
  int64_t evictions_ = 0;
  int64_t live_entries_ = 0;
  int64_t live_bytes_ = 0;
  uint64_t generation_ = 1;
  int64_t clock_block_ = 0;
};

}  // namespace adr

#endif  // ADR_CORE_CLUSTER_CACHE_REFERENCE_H_
