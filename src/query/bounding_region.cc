#include "query/bounding_region.h"

#include <algorithm>

#include "search/expansion_context.h"

namespace strr {

namespace {

/// Region membership + boundary scan on a pooled context (no O(network)
/// allocation per call): members of `region` with a neighbour outside it.
std::vector<SegmentId> BoundaryWith(ExpansionContext& ctx,
                                    const RoadNetwork& network,
                                    const std::vector<SegmentId>& region) {
  ctx.Begin(network.NumSegments());
  for (SegmentId s : region) ctx.Touch(s);  // Seen == inside
  std::vector<SegmentId> boundary;
  for (SegmentId s : region) {
    for (SegmentId nb : network.NeighborsOf(s)) {
      if (!ctx.Seen(nb)) {
        boundary.push_back(s);
        break;
      }
    }
  }
  return boundary;
}

/// Boundary used to seed TBS: region members with a neighbour outside the
/// region. When the cone saturated a whole connected component there is no
/// "outside" — fall back to the expansion's outermost shell, which is
/// still the geometric rim the trace back should start from.
std::vector<SegmentId> MergeBoundary(
    ExpansionContext& ctx, const RoadNetwork& network,
    const std::vector<SegmentId>& region,
    const std::vector<SegmentId>& last_frontier) {
  std::vector<SegmentId> boundary = BoundaryWith(ctx, network, region);
  if (!boundary.empty()) return boundary;
  return last_frontier;
}

/// Reachability-list oracles over the Con-Index.
FrontierEngine::ListFn FarLists(const ConIndex& con_index) {
  return [&con_index](SegmentId r,
                      int64_t tod) -> const std::vector<SegmentId>& {
    return con_index.Far(r, tod);
  };
}

FrontierEngine::ListFn NearLists(const ConIndex& con_index) {
  return [&con_index](SegmentId r,
                      int64_t tod) -> const std::vector<SegmentId>& {
    return con_index.Near(r, tod);
  };
}

FrontierEngine::ConeRequest MakeConeRequest(
    const std::vector<SegmentId>& starts, int64_t start_tod, int64_t duration,
    const ConIndex& con_index) {
  FrontierEngine::ConeRequest request;
  request.starts = starts;
  request.start_tod = start_tod;
  request.duration_seconds = duration;
  request.delta_t_seconds = con_index.delta_t_seconds();
  request.profile_slot_seconds =
      kSecondsPerDay / std::max(1, con_index.num_profile_slots());
  return request;
}

}  // namespace

std::vector<SegmentId> RegionBoundary(const RoadNetwork& network,
                                      const std::vector<SegmentId>& region) {
  auto ctx = ExpansionContextPool::Global().Acquire();
  return BoundaryWith(*ctx, network, region);
}

std::vector<SegmentId> LocationSegmentSet(const RoadNetwork& network,
                                          SegmentId seg) {
  std::vector<SegmentId> set{seg};
  const RoadSegment& s = network.segment(seg);
  if (s.two_way && s.reverse_id != kInvalidSegment) {
    set.push_back(s.reverse_id);
  }
  std::sort(set.begin(), set.end());
  return set;
}

StatusOr<BoundingRegions> SqmbSearch(const RoadNetwork& network,
                                     const ConIndex& con_index,
                                     SegmentId start, int64_t start_tod,
                                     int64_t duration_seconds) {
  if (start >= network.NumSegments()) {
    return Status::InvalidArgument("SQMB: invalid start segment");
  }
  return SqmbSearchSet(network, con_index, {start}, start_tod,
                       duration_seconds);
}

StatusOr<BoundingRegions> SqmbSearchSet(const RoadNetwork& network,
                                        const ConIndex& con_index,
                                        const std::vector<SegmentId>& starts,
                                        int64_t start_tod,
                                        int64_t duration_seconds,
                                        SearchMetrics* metrics) {
  if (starts.empty()) {
    return Status::InvalidArgument("SQMB: no start segments");
  }
  for (SegmentId s : starts) {
    if (s >= network.NumSegments()) {
      return Status::InvalidArgument("SQMB: invalid start segment");
    }
  }
  if (duration_seconds <= 0) {
    return Status::InvalidArgument("SQMB: duration must be positive");
  }

  BoundingRegions out;
  out.start_segments = starts;

  FrontierEngine engine(network);
  auto ctx = ExpansionContextPool::Global().Acquire();
  FrontierEngine::ConeRequest request = MakeConeRequest(
      out.start_segments, start_tod, duration_seconds, con_index);

  std::vector<SegmentId> last_frontier;
  out.max_region = engine.RunCone(*ctx, request, FarLists(con_index), nullptr,
                                  &last_frontier, metrics);
  out.min_region = engine.RunCone(*ctx, request, NearLists(con_index), nullptr,
                                  nullptr, metrics);
  out.boundary = MergeBoundary(*ctx, network, out.max_region, last_frontier);
  return out;
}

StatusOr<BoundingRegions> MqmbSearch(const RoadNetwork& network,
                                     const ConIndex& con_index,
                                     const SpeedProfile& profile,
                                     const std::vector<SegmentId>& starts,
                                     int64_t start_tod,
                                     int64_t duration_seconds,
                                     SearchMetrics* metrics) {
  if (starts.empty()) {
    return Status::InvalidArgument("MQMB: no start segments");
  }
  for (SegmentId s : starts) {
    if (s >= network.NumSegments()) {
      return Status::InvalidArgument("MQMB: invalid start segment");
    }
  }
  if (duration_seconds <= 0) {
    return Status::InvalidArgument("MQMB: duration must be positive");
  }

  BoundingRegions out;
  out.start_segments = starts;
  std::sort(out.start_segments.begin(), out.start_segments.end());
  out.start_segments.erase(
      std::unique(out.start_segments.begin(), out.start_segments.end()),
      out.start_segments.end());

  FrontierEngine engine(network);

  // Nearest-start assignment by travel time (multi-source expansion with
  // the same speed statistics the Far/Near tables use, budgeted by L).
  // The winning start per segment stays queryable on the contexts for the
  // cone filters below — no O(network) origin arrays are materialized.
  SpeedFn max_speed = [&profile, start_tod](SegmentId id) {
    return profile.MaxSpeed(id, start_tod);
  };
  SpeedFn min_speed = [&profile, start_tod](SegmentId id) {
    return profile.MinSpeed(id, start_tod);
  };
  FrontierEngine::TimedRequest nearest;
  nearest.sources = out.start_segments;
  nearest.budget = static_cast<double>(duration_seconds) * 1.25 + 60.0;
  nearest.track_origin = true;
  auto nearest_max = ExpansionContextPool::Global().Acquire();
  auto nearest_min = ExpansionContextPool::Global().Acquire();
  engine.RunTimed(*nearest_max, nearest, max_speed, metrics);
  engine.RunTimed(*nearest_min, nearest, min_speed, metrics);

  // The elimination rule (paper §3.3.2): keep a discovered segment only if
  // it was reached through its *nearest* start's cone. Segments outside the
  // budgeted nearest-start map (rare profile-drift cases) are kept.
  ExpansionContext& nmx = *nearest_max;
  ExpansionContext& nmn = *nearest_min;
  auto keep_max = [&nmx](SegmentId owner, SegmentId found) {
    return !nmx.Seen(found) || nmx.Origin(found) == owner;
  };
  auto keep_min = [&nmn](SegmentId owner, SegmentId found) {
    return !nmn.Seen(found) || nmn.Origin(found) == owner;
  };

  auto ctx = ExpansionContextPool::Global().Acquire();
  FrontierEngine::ConeRequest request = MakeConeRequest(
      out.start_segments, start_tod, duration_seconds, con_index);

  std::vector<SegmentId> last_frontier;
  out.max_region = engine.RunCone(*ctx, request, FarLists(con_index), keep_max,
                                  &last_frontier, metrics);
  out.min_region = engine.RunCone(*ctx, request, NearLists(con_index),
                                  keep_min, nullptr, metrics);
  out.boundary = MergeBoundary(*ctx, network, out.max_region, last_frontier);
  return out;
}

}  // namespace strr
