// ResultCache: plan-keyed (PlanKey -> RegionResult) cache with Δt-slot
// invalidation — the memory half of the query front door.
//
// The paper's motivating workloads (taxi dispatch, location-based
// advertising) hammer a handful of downtown start points with identical
// queries; PR 1's executor recomputes every one from scratch. This cache
// absorbs that hot-spot traffic: results are keyed by a canonical byte
// encoding of the resolved plan (strategy, start segments per location,
// raw locations, T, L, Prob), so two plans that would execute identically
// hit the same entry, and execution is deterministic, so a cached region
// is bit-identical to a recompute.
//
// Invalidation is Δt-slot-aware: every entry records the slot range
// [T/Δt, (T+L-1)/Δt] its result was computed from (queries read time
// lists and speed/connection tables only inside their own window, see
// QueryExecutor), so a congestion or speed-profile refresh covering some
// time range evicts exactly the entries whose windows intersect it and
// leaves the rest serving.
//
// Replacement is plain LRU per shard, with no policy option. Keys are
// always tenant-scoped (see MakePlanKey), so no tenant's entry ever serves
// another tenant.
//
// Thread-safe: the table is sharded by key hash; each shard's LRU list
// and map are guarded by the shard mutex, and Lookup copies the result
// out under that mutex, so readers can never observe a torn RegionResult
// while another thread inserts, evicts, or invalidates.
#ifndef STRR_CORE_RESULT_CACHE_H_
#define STRR_CORE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/query.h"
#include "query/query_plan.h"
#include "util/time_util.h"

namespace strr {

/// Canonical identity of one executable plan. Two plans with equal keys
/// execute to bit-identical results; two plans that could diverge (any
/// field differs) never collide on `canonical`.
struct PlanKey {
  uint64_t hash = 0;        ///< FNV-1a over `canonical` (shard + bucket pick)
  int64_t start_tod = 0;    ///< copied out for Δt-slot range computation
  int64_t duration = 0;
  /// Full serialized identity (equality check). The tenant scope is part
  /// of these bytes (see MakePlanKey) — there is deliberately no separate
  /// tenant field, so the canonical encoding stays the single source of
  /// key identity.
  std::string canonical;
};

/// Derives the canonical key for `plan`. Cheap (one small buffer); safe on
/// unvalidated plans (a malformed plan gets a key that simply never hits).
/// The plan's tenant is part of the identity, so two tenants issuing the
/// same query get separate entries — cached bytes never leak across
/// tenants.
PlanKey MakePlanKey(const QueryPlan& plan);

/// Cache construction knobs.
struct ResultCacheOptions {
  /// Total entries across all shards; 0 behaves as 1 per shard.
  size_t capacity = 4096;
  /// Shard count (locks). More shards = less contention, coarser LRU.
  size_t shards = 8;
};

/// Sharded LRU cache of query results. See file comment for contracts.
class ResultCache {
 public:
  /// `delta_t_seconds` is the executor's Δt: it defines the slot bucketing
  /// used for invalidation and must match the index stack the cached
  /// results were computed over.
  ResultCache(int64_t delta_t_seconds, const ResultCacheOptions& options);

  /// Returns a copy of the cached result for `key` (stats.cache_hit set),
  /// or nullopt on miss. Refreshes the entry's LRU position.
  std::optional<RegionResult> Lookup(const PlanKey& key);

  /// Inserts (or refreshes) `result` under `key`, evicting the shard's LRU
  /// tail when over capacity. The stored copy has stats.cache_hit false;
  /// Lookup flips it on the way out.
  void Insert(const PlanKey& key, const RegionResult& result);

  /// Evicts every entry whose Δt-slot window intersects the Δt slots
  /// covering [begin_tod, end_tod) — the hook congestion / speed-profile
  /// refreshes call so only affected slots recompute.
  void InvalidateTimeRange(int64_t begin_tod, int64_t end_tod);

  /// Evicts every entry whose slot window intersects [begin, end]
  /// (inclusive, Δt slot ids).
  void InvalidateSlotRange(SlotId begin, SlotId end);

  /// Drops the entry for `key` if present (counted under `invalidated`).
  /// The live read path uses this to undo an insert that raced a snapshot
  /// publish (see QueryExecutor::MaybeCacheInsert).
  void Erase(const PlanKey& key);

  /// Drops everything (counted under `invalidated`).
  void InvalidateAll();

  /// Point-in-time counters, summed across shards.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;    ///< LRU capacity evictions
    uint64_t invalidated = 0;  ///< entries dropped by invalidation
  };
  Stats stats() const;

  /// Live entries across all shards.
  size_t size() const;

  size_t capacity() const { return shard_capacity_ * shards_.size(); }
  int64_t delta_t_seconds() const { return delta_t_seconds_; }

 private:
  struct Entry {
    std::string canonical;
    SlotId first_slot = 0;
    SlotId last_slot = 0;
    /// Immutable once stored (refreshes swap the pointer), so Lookup can
    /// copy the pointed-to result outside the shard lock — hot-spot hits
    /// hold the mutex for O(1) pointer work, not a vector copy.
    std::shared_ptr<const RegionResult> result;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    Stats stats;
  };

  Shard& ShardFor(const PlanKey& key) {
    return *shards_[key.hash % shards_.size()];
  }

  int64_t delta_t_seconds_;
  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace strr

#endif  // STRR_CORE_RESULT_CACHE_H_
