#include "core/result_cache.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "util/hashing.h"
#include "util/serialize.h"

namespace strr {

namespace {

// Process-global mirrors of the per-instance Stats fields (no-ops until
// the registry is enabled). The per-instance struct stays authoritative
// for front_door_stats(); these aggregate every cache in the process for
// the scrape surface.
obs::Counter& HitsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("strr_cache_hits_total");
  return c;
}
obs::Counter& MissesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("strr_cache_misses_total");
  return c;
}
obs::Counter& InsertionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_cache_insertions_total");
  return c;
}
obs::Counter& EvictionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_cache_evictions_total");
  return c;
}
obs::Counter& InvalidatedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_cache_invalidated_total");
  return c;
}

/// Δt slot of the first second a query window [start_tod, start_tod + L)
/// touches. Windows are within-day by construction (queries take a
/// time-of-day), so no day clamping is applied.
SlotId FirstSlot(int64_t start_tod, int64_t delta_t) {
  return static_cast<SlotId>(start_tod / delta_t);
}

/// Δt slot of the last second the window touches (inclusive).
SlotId LastSlot(int64_t start_tod, int64_t duration, int64_t delta_t) {
  int64_t last_second = start_tod + std::max<int64_t>(duration, 1) - 1;
  return static_cast<SlotId>(last_second / delta_t);
}

}  // namespace

PlanKey MakePlanKey(const QueryPlan& plan) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(plan.strategy));
  w.PutVarint32(plan.tenant);
  w.PutI64(plan.start_tod);
  w.PutI64(plan.duration);
  // Bit pattern, not value: -0.0 vs 0.0 or NaN payloads must not collide
  // with each other under a value comparison that disagrees with what the
  // execution paths actually consume.
  w.PutU64(std::bit_cast<uint64_t>(plan.prob));
  w.PutVarint32(static_cast<uint32_t>(plan.locations.size()));
  for (const XyPoint& p : plan.locations) {
    w.PutU64(std::bit_cast<uint64_t>(p.x));
    w.PutU64(std::bit_cast<uint64_t>(p.y));
  }
  w.PutVarint32(static_cast<uint32_t>(plan.location_starts.size()));
  for (const std::vector<SegmentId>& starts : plan.location_starts) {
    w.PutVarint32(static_cast<uint32_t>(starts.size()));
    for (SegmentId seg : starts) w.PutVarint32(seg);
  }
  PlanKey key;
  key.start_tod = plan.start_tod;
  key.duration = plan.duration;
  key.canonical = w.data();
  key.hash = Fnv1a64(key.canonical);
  return key;
}

ResultCache::ResultCache(int64_t delta_t_seconds,
                         const ResultCacheOptions& options)
    : delta_t_seconds_(delta_t_seconds > 0 ? delta_t_seconds : 1) {
  size_t shards = std::max<size_t>(options.shards, 1);
  shard_capacity_ = std::max<size_t>(options.capacity / shards, 1);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::optional<RegionResult> ResultCache::Lookup(const PlanKey& key) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<const RegionResult> stored;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key.canonical);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      MissesCounter().Add();
      return std::nullopt;
    }
    ++shard.stats.hits;
    HitsCounter().Add();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    stored = it->second->result;  // O(1) pointer copy under the lock
  }
  // The stored object is immutable; copying it out here (outside the
  // lock) cannot tear even if the entry is concurrently evicted.
  RegionResult out = *stored;
  out.stats.cache_hit = true;
  return out;
}

void ResultCache::Insert(const PlanKey& key, const RegionResult& result) {
  // Copy the (potentially large) result outside the shard lock.
  auto stored = std::make_shared<RegionResult>(result);
  stored->stats.cache_hit = false;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key.canonical);
  if (it != shard.index.end()) {
    // Deterministic execution makes re-inserts value-identical; just
    // refresh the stored pointer and the LRU position.
    it->second->result = std::move(stored);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  Entry entry;
  entry.canonical = key.canonical;
  entry.first_slot = FirstSlot(key.start_tod, delta_t_seconds_);
  entry.last_slot = LastSlot(key.start_tod, key.duration, delta_t_seconds_);
  // The execution paths normalize time-of-day modulo one day, so a window
  // crossing midnight actually reads early-morning slots too. Recording
  // the raw (unwrapped) range would let an invalidation of those morning
  // slots miss this entry; cover the whole day instead — conservative
  // over-eviction, never a stale serve.
  if (entry.last_slot >= SlotsPerDay(delta_t_seconds_)) {
    entry.first_slot = 0;
    entry.last_slot = SlotsPerDay(delta_t_seconds_) - 1;
  }
  entry.result = std::move(stored);
  shard.lru.push_front(std::move(entry));
  shard.index[key.canonical] = shard.lru.begin();
  ++shard.stats.insertions;
  InsertionsCounter().Add();
  while (shard.index.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().canonical);
    shard.lru.pop_back();
    ++shard.stats.evictions;
    EvictionsCounter().Add();
  }
}

void ResultCache::InvalidateTimeRange(int64_t begin_tod, int64_t end_tod) {
  if (end_tod <= begin_tod) return;
  InvalidateSlotRange(FirstSlot(begin_tod, delta_t_seconds_),
                      LastSlot(begin_tod, end_tod - begin_tod,
                               delta_t_seconds_));
}

void ResultCache::InvalidateSlotRange(SlotId begin, SlotId end) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      bool overlaps = it->first_slot <= end && begin <= it->last_slot;
      if (overlaps) {
        shard.index.erase(it->canonical);
        it = shard.lru.erase(it);
        ++shard.stats.invalidated;
        InvalidatedCounter().Add();
      } else {
        ++it;
      }
    }
  }
}

void ResultCache::Erase(const PlanKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key.canonical);
  if (it == shard.index.end()) return;
  shard.lru.erase(it->second);
  shard.index.erase(it);
  ++shard.stats.invalidated;
  InvalidatedCounter().Add();
}

void ResultCache::InvalidateAll() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.invalidated += shard.index.size();
    InvalidatedCounter().Add(shard.index.size());
    shard.lru.clear();
    shard.index.clear();
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats total;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    total.hits += shard_ptr->stats.hits;
    total.misses += shard_ptr->stats.misses;
    total.insertions += shard_ptr->stats.insertions;
    total.evictions += shard_ptr->stats.evictions;
    total.invalidated += shard_ptr->stats.invalidated;
  }
  return total;
}

size_t ResultCache::size() const {
  size_t n = 0;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    n += shard_ptr->index.size();
  }
  return n;
}

}  // namespace strr
