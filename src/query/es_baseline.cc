#include "query/es_baseline.h"

#include <algorithm>

#include "query/bounding_region.h"
#include "query/probability.h"
#include "roadnet/expansion.h"
#include "util/stopwatch.h"

namespace strr {

StatusOr<RegionResult> ExhaustiveSearch(const StIndex& st_index,
                                        const SpeedProfile& profile,
                                        const SQuery& query, int64_t delta_t) {
  STRR_ASSIGN_OR_RETURN(SegmentId r0, st_index.LocateSegment(query.location));
  return ExhaustiveSearch(st_index, profile, query, delta_t,
                          LocationSegmentSet(st_index.network(), r0));
}

StatusOr<RegionResult> ExhaustiveSearch(const StIndex& st_index,
                                        const SpeedProfile& profile,
                                        const SQuery& query, int64_t delta_t,
                                        const std::vector<SegmentId>& starts) {
  if (!(query.prob > 0.0 && query.prob <= 1.0)) {  // NaN fails too
    return Status::InvalidArgument("ES: Prob must be in (0, 1]");
  }
  if (query.start_tod < 0 || query.start_tod >= kSecondsPerDay) {
    return Status::InvalidArgument("ES: start time must be in [0, 86400)");
  }
  if (starts.empty()) {
    return Status::InvalidArgument("ES: no start segments");
  }
  Stopwatch watch;
  const RoadNetwork& network = st_index.network();
  StorageStats io_before = st_index.storage_stats();

  // Expand the road network from the start within the duration budget.
  // The baseline has no mined speed statistics (those are exactly what the
  // Con-Index contributes), so the only sound bound it can use is the
  // road-class design speed: everything within free-flow reach must be
  // examined against the trajectory store.
  std::vector<ExpansionHit> cone =
      ExpandFromMany(network, starts, static_cast<double>(query.duration),
                     FreeFlowSpeeds(network), nullptr);
  (void)profile;

  STRR_ASSIGN_OR_RETURN(
      ReachabilityProbability oracle,
      ReachabilityProbability::Create(st_index, starts, query.start_tod,
                                      delta_t, query.duration));

  RegionResult result;
  for (const ExpansionHit& hit : cone) {
    STRR_ASSIGN_OR_RETURN(bool reaches,
                          oracle.Reaches(hit.segment, query.prob));
    if (reaches) result.segments.push_back(hit.segment);
  }
  std::sort(result.segments.begin(), result.segments.end());
  result.total_length_m = network.LengthOfSegments(result.segments);

  result.stats.wall_ms = watch.ElapsedMillis();
  result.stats.segments_verified = oracle.verifications();
  result.stats.time_lists_read = oracle.time_lists_read();
  result.stats.io = st_index.storage_stats() - io_before;
  result.stats.max_region_segments = cone.size();
  return result;
}

}  // namespace strr
