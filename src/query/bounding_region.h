// Bounding-region search: SQMB (Algorithm 1) and MQMB (Algorithm 3).
//
// SQMB walks the Con-Index Far (resp. Near) lists for k = ceil(L/Δt) hops
// to produce the maximum (resp. minimum) bounding region of a query — an
// upper (lower) bound of the Prob-reachable region obtained without
// touching any trajectory data on disk.
//
// MQMB does the same for several start locations at once, eliminating
// overlap with the paper's nearest-start rule: a frontier segment is kept
// only when the start whose Far cone produced it is also its nearest start
// (by travel time), so overlapped interiors are expanded exactly once.
//
// Both searches run sequentially on the unified frontier core
// (src/search/) over pooled ExpansionContexts, so a query makes no
// O(network) allocations. `metrics` (optional) accumulates the search
// work counters QueryStats reports.
#ifndef STRR_QUERY_BOUNDING_REGION_H_
#define STRR_QUERY_BOUNDING_REGION_H_

#include <vector>

#include "index/con_index.h"
#include "index/st_index.h"
#include "roadnet/road_network.h"
#include "search/frontier_engine.h"
#include "util/result.h"

namespace strr {

/// Output of a bounding-region search.
struct BoundingRegions {
  std::vector<SegmentId> start_segments;  ///< located start road segment(s)
  std::vector<SegmentId> max_region;      ///< sorted maximum bounding region
  std::vector<SegmentId> min_region;      ///< sorted minimum bounding region
  /// Outer boundary of max_region: members with at least one road-network
  /// neighbour outside the region. Seeds the trace back search.
  std::vector<SegmentId> boundary;
};

/// SQMB: single-location maximum/minimum bounding region search.
/// `start` must be a valid segment (callers locate it via StIndex).
StatusOr<BoundingRegions> SqmbSearch(const RoadNetwork& network,
                                     const ConIndex& con_index,
                                     SegmentId start, int64_t start_tod,
                                     int64_t duration_seconds);

/// SQMB over a start-segment *set*: one query location on a two-way street
/// corresponds to both directed twins (a trajectory in either direction
/// passes the location). All segments expand as one frontier.
StatusOr<BoundingRegions> SqmbSearchSet(const RoadNetwork& network,
                                        const ConIndex& con_index,
                                        const std::vector<SegmentId>& starts,
                                        int64_t start_tod,
                                        int64_t duration_seconds,
                                        SearchMetrics* metrics = nullptr);

/// The segment set a query location on `seg` denotes: {seg} plus its
/// reverse twin when the street is two-way.
std::vector<SegmentId> LocationSegmentSet(const RoadNetwork& network,
                                          SegmentId seg);

/// MQMB: multi-location variant with overlap elimination. `starts` must be
/// non-empty, deduplicated valid segments.
StatusOr<BoundingRegions> MqmbSearch(const RoadNetwork& network,
                                     const ConIndex& con_index,
                                     const SpeedProfile& profile,
                                     const std::vector<SegmentId>& starts,
                                     int64_t start_tod,
                                     int64_t duration_seconds,
                                     SearchMetrics* metrics = nullptr);

/// Boundary extraction (exposed for tests): members of `region` (sorted)
/// having a neighbour outside it.
std::vector<SegmentId> RegionBoundary(const RoadNetwork& network,
                                      const std::vector<SegmentId>& region);

}  // namespace strr

#endif  // STRR_QUERY_BOUNDING_REGION_H_
