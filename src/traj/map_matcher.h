// MapMatcher: HMM/Viterbi map-matching of raw GPS trajectories onto the
// road network (the paper's pre-processing step, which cites the IVMM
// matcher [29]; we implement the standard HMM formulation that fills the
// same role — see DESIGN.md §2).
//
// States per GPS fix: candidate segments within a radius (via the
// network's R-tree, RoadNetwork::SegmentsWithinRadius).
// Emission: Gaussian in the perpendicular distance from fix to segment.
// Transition: penalizes the mismatch between on-network route length and
// the straight-line displacement between consecutive fixes (Newson-Krumm
// style), with route lengths from a budgeted Dijkstra.
#ifndef STRR_TRAJ_MAP_MATCHER_H_
#define STRR_TRAJ_MAP_MATCHER_H_

#include <memory>
#include <vector>

#include "roadnet/road_network.h"
#include "traj/trajectory.h"
#include "util/result.h"

namespace strr {

/// Matching knobs.
struct MapMatcherOptions {
  double candidate_radius_m = 60.0;  ///< candidate search radius per fix
  size_t max_candidates = 6;         ///< strongest candidates kept per fix
  double gps_sigma_m = 20.0;         ///< emission noise scale
  double transition_beta = 2.0;      ///< route-vs-line mismatch scale (log)
  double max_route_factor = 4.0;     ///< route search budget multiplier
};

/// Viterbi matcher; construct once per network, Match per trajectory.
class MapMatcher {
 public:
  MapMatcher(const RoadNetwork& network, MapMatcherOptions options = {});

  /// Matches a raw trajectory. Fixes with no candidate in radius are
  /// dropped; if fewer than one fix survives, returns an empty matched
  /// trajectory (same ids). Consecutive identical segments are collapsed
  /// into one MatchedSample at the first enter time.
  StatusOr<MatchedTrajectory> Match(const RawTrajectory& raw) const;

  const MapMatcherOptions& options() const { return options_; }

 private:
  /// On-network travel distance (meters) from the head of `from` to the
  /// head of `to`, bounded by `budget_m`; +inf when not reachable in budget.
  double RouteDistance(SegmentId from, SegmentId to, double budget_m) const;

  const RoadNetwork& network_;
  MapMatcherOptions options_;
};

}  // namespace strr

#endif  // STRR_TRAJ_MAP_MATCHER_H_
