// Incremental Network Expansion (INE) — the bounded Dijkstra over travel
// time that the paper adapts from Papadias et al. [21].
//
// Two uses:
//  * Con-Index construction: expand from every segment with per-segment
//    min/max speeds to produce Near/Far reachable lists within one Δt.
//  * ES baseline: expand from the query segment verifying each reached
//    segment against the trajectory store.
//
// Expansion is over *segments*: the travel-time label of a segment is the
// earliest time its head node can be reached after departing the tail of
// the source segment at time 0 (source traversal included). A segment is
// "reached within budget" when the time to finish traversing it is within
// the budget. Speeds are supplied per segment by a callback so callers can
// plug historical min/mean/max profiles.
//
// These are convenience wrappers over the unified frontier-search core in
// src/search/ (FrontierEngine + pooled ExpansionContexts — see
// search/frontier_engine.h for the interior and its tie rule); SpeedFn
// and ExpansionHit live there and are re-exported here. Callers that run
// many expansions use the engine directly.
#ifndef STRR_ROADNET_EXPANSION_H_
#define STRR_ROADNET_EXPANSION_H_

#include <vector>

#include "roadnet/road_network.h"
#include "search/frontier_engine.h"

namespace strr {

/// Runs bounded network expansion from `source` with the given time budget.
///
/// Returns every segment whose traversal can complete within
/// `budget_seconds`, including the source itself (at its own traversal
/// time, 0 budget yields empty). Results are sorted by arrival time.
std::vector<ExpansionHit> ExpandFrom(const RoadNetwork& network,
                                     SegmentId source, double budget_seconds,
                                     const SpeedFn& speed_fn);

/// Multi-source variant used by MQMB distance computations: expands from all
/// sources simultaneously; `out_source` (optional, segment-indexed,
/// kInvalidSegment = unreached) receives the winning source per segment.
/// On an exactly equal travel-time tie the smaller source id wins (the
/// engine's canonical rule).
std::vector<ExpansionHit> ExpandFromMany(const RoadNetwork& network,
                                         const std::vector<SegmentId>& sources,
                                         double budget_seconds,
                                         const SpeedFn& speed_fn,
                                         std::vector<SegmentId>* out_source);

/// Unbounded single-source shortest travel times from `source` to every
/// segment (seconds to *finish* each segment). Unreachable = +inf.
/// Used by MQMB's nearest-start rule and by the fleet simulator's router.
std::vector<double> ShortestTravelTimes(const RoadNetwork& network,
                                        SegmentId source,
                                        const SpeedFn& speed_fn);

/// Shortest path as a segment sequence from `source` to `target`
/// (inclusive of both). Empty when unreachable. Cost = travel time.
std::vector<SegmentId> ShortestPath(const RoadNetwork& network,
                                    SegmentId source, SegmentId target,
                                    const SpeedFn& speed_fn);

/// Convenience speed oracle: free-flow speed of each segment's road class.
SpeedFn FreeFlowSpeeds(const RoadNetwork& network);

}  // namespace strr

#endif  // STRR_ROADNET_EXPANSION_H_
