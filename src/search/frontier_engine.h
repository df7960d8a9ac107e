// FrontierEngine: the unified frontier-search core of the whole system.
//
// Every hot path the paper describes is one of two frontier expansions
// over the directed segment graph:
//
//  * TIMED expansion — the modified Incremental Network Expansion
//    (Dijkstra over travel time, Papadias et al. [21]) behind Con-Index
//    table construction (Algorithm: Near/Far lists per Δt), the ES
//    baseline cone and MQMB's nearest-start assignment (Algorithm 3);
//  * CONE expansion — the Δt-hop walk over Con-Index Near/Far lists
//    behind SQMB (Algorithm 1) and MQMB bounding regions.
//
// The engine owns both interiors and runs them on pooled
// ExpansionContexts (zero steady-state allocation). Both run on the
// calling thread: a query's time goes mostly to TBS verification reads,
// not to these loops (see perfbench/README.md).
//
// ## Arrival oracle
//
// The per-segment cost is pluggable: a SpeedFn maps a segment to the
// speed used for its traversal (<= 0 marks the segment blocked in this
// pass).
//
// ## Canonical tie rule
//
// Timed expansion labels are completion times. A strictly smaller time
// always wins; on an exactly equal time the smaller origin (and parent)
// id wins, and the tie improvement is re-enqueued so it propagates past
// already-expanded segments. Costs are non-negative, so the (label,
// origin, parent) fixpoint of that rule is unique: labels are
// shortest-path times and tie fields are the minimum over optimal
// predecessors. Results therefore do not depend on heap order among
// equal keys.
//
// Cone expansion is level-synchronous: members discovered in step k
// expand in step k+1, in (frontier position, list position) discovery
// order.
#ifndef STRR_SEARCH_FRONTIER_ENGINE_H_
#define STRR_SEARCH_FRONTIER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "roadnet/road_network.h"
#include "search/expansion_context.h"

namespace strr {

/// Per-segment speed oracle, meters/second. Must return > 0 for
/// traversable segments; return <= 0 to mark a segment non-traversable in
/// this pass.
using SpeedFn = std::function<double(SegmentId)>;

/// Free-flow speed of each segment's road class: the ES baseline's bound.
/// Holds a reference to `network`.
inline SpeedFn FreeFlowSpeeds(const RoadNetwork& network) {
  return [&network](SegmentId id) {
    return FreeFlowSpeed(network.segment(id).level);
  };
}

/// One expansion hit: a segment plus the earliest completion time.
struct ExpansionHit {
  SegmentId segment;
  double arrival_seconds;  ///< time at which the segment is fully traversed
};

/// Work counters for one search, summed across its expansions. These feed
/// QueryStats (segments_expanded / heap_pops).
struct SearchMetrics {
  uint64_t segments_expanded = 0;  ///< frontier members expanded
  uint64_t heap_pops = 0;          ///< d-ary heap pops (timed mode)
};

/// See file comment. Cheap to construct (stores references); one engine
/// instance serves one search at a time (per context), but any number of
/// engines may run concurrently over the same network.
class FrontierEngine {
 public:
  explicit FrontierEngine(const RoadNetwork& network) : network_(&network) {}

  // --- Timed (Dijkstra / INE) expansion -------------------------------------

  struct TimedRequest {
    std::span<const SegmentId> sources;
    /// Completion-time budget; hits must finish within it.
    double budget = kUnreachedLabel;
    bool track_origin = false;  ///< record the winning source per segment
    bool track_parent = false;  ///< record the predecessor per segment
    /// Early exit once this segment settles (used by point-to-point
    /// shortest path).
    SegmentId stop_at = kInvalidSegment;
  };

  /// Runs multi-source expansion into `ctx` (Begin is called internally).
  /// Afterwards ctx.reached() lists every segment whose traversal can
  /// complete within budget, with ctx.Label/Origin/Parent holding the
  /// per-segment results until the context's next Begin.
  void RunTimed(ExpansionContext& ctx, const TimedRequest& request,
                const SpeedFn& speed, SearchMetrics* metrics = nullptr) const;

  /// Materializes ctx results as hits sorted by (arrival, id).
  std::vector<ExpansionHit> HitsByArrival(const ExpansionContext& ctx) const;

  /// Materializes ctx results as segment ids sorted ascending — the form
  /// Con-Index Near/Far lists store.
  std::vector<SegmentId> ReachedSorted(const ExpansionContext& ctx) const;

  // --- Cone (Δt-hop reachability-list) expansion ----------------------------

  /// Reachability-list oracle: the segments reachable from `seg` within
  /// one Δt at the statistics slot covering `tod`.
  using ListFn =
      std::function<const std::vector<SegmentId>&(SegmentId seg, int64_t tod)>;

  /// MQMB elimination filter: return false to reject `found` discovered
  /// through `owner`'s cone. Must be pure: it is asked only for segments
  /// not yet in the cone.
  using ConeFilter =
      std::function<bool(SegmentId owner, SegmentId found)>;

  struct ConeRequest {
    std::span<const SegmentId> starts;
    int64_t start_tod = 0;
    int64_t duration_seconds = 0;
    int64_t delta_t_seconds = 300;       ///< hop width (k = ceil-ish L/Δt)
    int64_t profile_slot_seconds = 3600; ///< speed-statistics granularity
  };

  /// Runs the hop walk into `ctx`; returns the cone members sorted by id.
  /// Members carry their owning start in ctx.Origin. `last_frontier_out`
  /// (optional) receives the outermost expansion shell, sorted — the TBS
  /// seed when the cone saturates its component. Members are expanded at
  /// most once per profile slot (speeds only change across slots, so
  /// re-expansion below that granularity is provably a no-op).
  std::vector<SegmentId> RunCone(ExpansionContext& ctx,
                                 const ConeRequest& request,
                                 const ListFn& lists, const ConeFilter& filter,
                                 std::vector<SegmentId>* last_frontier_out,
                                 SearchMetrics* metrics = nullptr) const;

  const RoadNetwork& network() const { return *network_; }

 private:
  const RoadNetwork* network_;
};

}  // namespace strr

#endif  // STRR_SEARCH_FRONTIER_ENGINE_H_
