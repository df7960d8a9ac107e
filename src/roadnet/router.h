// Router: point-to-point A* routing with an LRU-less memo cache.
//
// The fleet simulator routes hundreds of thousands of trips; A* with an
// admissible straight-line/v_max heuristic plus caching of (origin,
// destination) pairs keeps dataset generation fast. Costs are travel
// times under the supplied speed oracle (typically free-flow).
#ifndef STRR_ROADNET_ROUTER_H_
#define STRR_ROADNET_ROUTER_H_

#include <vector>

#include "roadnet/road_network.h"
#include "search/frontier_engine.h"
#include "util/flat_hash.h"

namespace strr {

/// A* router over segments. Not thread-safe (per-thread instances are
/// cheap; the scratch arrays dominate and are reused across calls).
class Router {
 public:
  /// `max_speed_mps` must upper-bound every speed the oracle returns, or
  /// the heuristic stops being admissible and paths may be suboptimal.
  Router(const RoadNetwork& network, SpeedFn speed_fn, double max_speed_mps);

  /// Shortest (travel-time) segment path from `source` to `target`,
  /// inclusive. Empty when unreachable.
  std::vector<SegmentId> Route(SegmentId source, SegmentId target);

  /// Route with memoization; identical queries return the cached path.
  const std::vector<SegmentId>& RouteCached(SegmentId source,
                                            SegmentId target);

  size_t CacheSize() const { return cache_.size(); }
  uint64_t CacheHits() const { return cache_hits_; }
  uint64_t CacheMisses() const { return cache_misses_; }

 private:
  double Heuristic(SegmentId from, SegmentId target) const;

  const RoadNetwork& network_;
  SpeedFn speed_fn_;
  double max_speed_;

  // Scratch arrays with a generation counter so reuse is O(1).
  std::vector<double> g_score_;
  std::vector<SegmentId> parent_;
  std::vector<uint32_t> touched_gen_;
  uint32_t generation_ = 0;

  /// Grow-only (src, dst) -> path memo. Flat open addressing: a lookup
  /// probes one contiguous key array instead of chasing bucket nodes —
  /// see util/flat_hash.h and bench_micro_components.
  FlatU64Map<std::vector<SegmentId>> cache_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

}  // namespace strr

#endif  // STRR_ROADNET_ROUTER_H_
