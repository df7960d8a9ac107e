#include "query/query_plan.h"

#include "query/bounding_region.h"

namespace strr {

const char* QueryStrategyName(QueryStrategy strategy) {
  switch (strategy) {
    case QueryStrategy::kIndexed:
      return "Indexed";
    case QueryStrategy::kExhaustive:
      return "Exhaustive";
    case QueryStrategy::kRepeatedS:
      return "RepeatedS";
  }
  return "Unknown";
}

std::vector<SegmentId> QueryPlan::AllStartSegments() const {
  std::vector<SegmentId> all;
  for (const auto& starts : location_starts) {
    all.insert(all.end(), starts.begin(), starts.end());
  }
  return all;
}

Status QueryPlanner::ResolveLocation(const XyPoint& location,
                                     QueryPlan* plan) const {
  STRR_ASSIGN_OR_RETURN(SegmentId r0, st_index_->LocateSegment(location));
  plan->locations.push_back(location);
  plan->location_starts.push_back(LocationSegmentSet(*network_, r0));
  return Status::OK();
}

StatusOr<QueryPlan> QueryPlanner::PlanSQuery(const SQuery& query,
                                             QueryStrategy strategy,
                                             TenantId tenant) const {
  if (!(query.prob > 0.0 && query.prob <= 1.0)) {  // NaN fails too
    return Status::InvalidArgument("SQuery: Prob must be in (0, 1]");
  }
  if (query.duration <= 0) {
    return Status::InvalidArgument("SQuery: duration must be positive");
  }
  if (query.start_tod < 0 || query.start_tod >= kSecondsPerDay) {
    return Status::InvalidArgument("SQuery: start time must be in [0, 86400)");
  }
  if (strategy == QueryStrategy::kRepeatedS) {
    // A one-location RepeatedS degenerates to Indexed; normalize so the
    // executor has one code path per strategy.
    strategy = QueryStrategy::kIndexed;
  }
  QueryPlan plan;
  plan.strategy = strategy;
  plan.start_tod = query.start_tod;
  plan.duration = query.duration;
  plan.prob = query.prob;
  plan.tenant = tenant;
  STRR_RETURN_IF_ERROR(ResolveLocation(query.location, &plan));
  return plan;
}

StatusOr<QueryPlan> QueryPlanner::PlanMQuery(const MQuery& query,
                                             QueryStrategy strategy,
                                             TenantId tenant) const {
  if (query.locations.empty()) {
    return Status::InvalidArgument("MQuery: no locations");
  }
  if (!(query.prob > 0.0 && query.prob <= 1.0)) {  // NaN fails too
    return Status::InvalidArgument("MQuery: Prob must be in (0, 1]");
  }
  if (query.duration <= 0) {
    return Status::InvalidArgument("MQuery: duration must be positive");
  }
  if (query.start_tod < 0 || query.start_tod >= kSecondsPerDay) {
    return Status::InvalidArgument("MQuery: start time must be in [0, 86400)");
  }
  if (strategy == QueryStrategy::kExhaustive) {
    return Status::InvalidArgument(
        "MQuery: the exhaustive baseline is single-location; plan each "
        "location as an SQuery instead");
  }
  QueryPlan plan;
  plan.strategy = strategy;
  plan.start_tod = query.start_tod;
  plan.duration = query.duration;
  plan.prob = query.prob;
  plan.tenant = tenant;
  for (const XyPoint& p : query.locations) {
    STRR_RETURN_IF_ERROR(ResolveLocation(p, &plan));
  }
  return plan;
}

}  // namespace strr
