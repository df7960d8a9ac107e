// QueryPlan / QueryPlanner: the "plan" half of the plan -> execute pipeline.
//
// A QueryPlan is a fully-resolved, validated description of one
// reachability query: the located start segment set per query location, the
// time window, the probability threshold, and the strategy to run it with.
// Planning does the cheap, fallible front work (argument validation,
// R-tree location lookup) once, so the executor can fan plans across
// worker threads without re-touching shared mutable state and so callers
// can batch, inspect, or reorder queries before paying execution cost.
//
// The planner is stateless apart from const references to the network and
// ST-Index; it is safe to plan from any thread.
#ifndef STRR_QUERY_QUERY_PLAN_H_
#define STRR_QUERY_QUERY_PLAN_H_

#include <vector>

#include "index/st_index.h"
#include "query/query.h"
#include "roadnet/road_network.h"
#include "util/result.h"

namespace strr {

/// How a plan's region is computed.
enum class QueryStrategy {
  /// SQMB (one location) or MQMB (several) bounding regions + TBS — the
  /// paper's indexed path.
  kIndexed,
  /// Exhaustive network expansion verifying every segment (ES baseline;
  /// single-location only).
  kExhaustive,
  /// m-query as one independent indexed s-query per location, regions
  /// unioned (the paper's m-query baseline). The executor runs the
  /// per-location legs in order.
  kRepeatedS,
};

const char* QueryStrategyName(QueryStrategy strategy);

/// A validated, resolved query ready for execution. Plans are plain values:
/// copyable, and independent of the planner that made them.
struct QueryPlan {
  QueryStrategy strategy = QueryStrategy::kIndexed;
  /// Original query locations (kept for strategies that re-locate, e.g. the
  /// ES baseline takes the raw point).
  std::vector<XyPoint> locations;
  /// location_starts[i]: the directed segment set location i denotes — the
  /// nearest segment plus its reverse twin on a two-way street. Parallel to
  /// `locations`, each entry non-empty.
  std::vector<std::vector<SegmentId>> location_starts;
  int64_t start_tod = 0;   ///< T: start time of day, seconds
  int64_t duration = 600;  ///< L: query duration, seconds
  double prob = 0.2;       ///< Prob in (0, 1]
  /// Tenant the plan is served on behalf of. Never changes the computed
  /// region — it routes the plan through the tenant's admission quota /
  /// WFQ weight and scopes its cache entry (unless the executor's
  /// shared-cache knob is on). kDefaultTenant reproduces single-tenant
  /// behavior exactly.
  TenantId tenant = kDefaultTenant;

  /// All start segments flattened in location order (duplicates kept: MQMB
  /// expects the caller's ordering and handles overlap itself).
  std::vector<SegmentId> AllStartSegments() const;

  bool IsMultiLocation() const { return locations.size() > 1; }
};

/// Turns raw queries into plans. Thread-safe (const lookups only).
class QueryPlanner {
 public:
  /// The network and index must outlive the planner.
  QueryPlanner(const RoadNetwork& network, const StIndex& st_index)
      : network_(&network), st_index_(&st_index) {}

  /// Plans a single-location query. InvalidArgument on a bad Prob,
  /// NotFound when the location cannot be matched to a segment. `tenant`
  /// stamps the plan for the multi-tenant front door (quota, WFQ weight,
  /// tenant-scoped caching); the default keeps single-tenant semantics.
  StatusOr<QueryPlan> PlanSQuery(
      const SQuery& query, QueryStrategy strategy = QueryStrategy::kIndexed,
      TenantId tenant = kDefaultTenant) const;

  /// Plans a multi-location query (strategy kIndexed -> MQMB, kRepeatedS ->
  /// per-location legs). kExhaustive is rejected: ES is single-location.
  StatusOr<QueryPlan> PlanMQuery(
      const MQuery& query, QueryStrategy strategy = QueryStrategy::kIndexed,
      TenantId tenant = kDefaultTenant) const;

 private:
  Status ResolveLocation(const XyPoint& location, QueryPlan* plan) const;

  const RoadNetwork* network_;
  const StIndex* st_index_;
};

}  // namespace strr

#endif  // STRR_QUERY_QUERY_PLAN_H_
