#include "core/query_executor.h"

#include <algorithm>
#include <future>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/es_baseline.h"
#include "query/probability.h"
#include "query/trace_back.h"
#include "util/stopwatch.h"

namespace strr {

namespace {

// Front-door observability (no-ops until the global registry/tracer are
// enabled — see obs/metrics.h; handles are cached once per site).
obs::Counter& QueryCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("strr_queries_total");
  return c;
}
obs::Counter& QueryErrorCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("strr_query_errors_total");
  return c;
}
obs::Histogram& QueryWallHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("strr_query_wall_us");
  return h;
}
obs::Histogram& AdmissionWaitHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "strr_admission_wait_us");
  return h;
}
obs::Counter& AdmissionShedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_admission_shed_total");
  return c;
}

/// Records the wall time and outcome of one front-door execution.
void RecordQueryMetrics(const Stopwatch& watch,
                        const StatusOr<RegionResult>& result) {
  QueryCounter().Add();
  if (!result.ok()) QueryErrorCounter().Add();
  if (obs::MetricsRegistry::Global().enabled()) {
    QueryWallHistogram().Record(
        static_cast<uint64_t>(watch.ElapsedMicros()));
  }
}

/// Sanity checks a plan before execution. Plans from QueryPlanner always
/// pass; this guards hand-built or mutated plans so a bad one surfaces as
/// a per-plan Status instead of undefined behaviour mid-batch.
Status ValidatePlan(const QueryPlan& plan) {
  if (plan.locations.empty() || plan.location_starts.empty()) {
    return Status::InvalidArgument("QueryPlan: no resolved locations");
  }
  if (plan.locations.size() != plan.location_starts.size()) {
    return Status::InvalidArgument(
        "QueryPlan: locations/location_starts size mismatch");
  }
  for (const auto& starts : plan.location_starts) {
    if (starts.empty()) {
      return Status::InvalidArgument(
          "QueryPlan: a location resolved to no start segments");
    }
  }
  if (!(plan.prob > 0.0 && plan.prob <= 1.0)) {  // NaN fails too
    return Status::InvalidArgument("QueryPlan: Prob must be in (0, 1]");
  }
  if (plan.duration <= 0) {
    return Status::InvalidArgument("QueryPlan: duration must be positive");
  }
  if (plan.strategy == QueryStrategy::kExhaustive &&
      plan.locations.size() > 1) {
    return Status::InvalidArgument(
        "QueryPlan: exhaustive strategy is single-location");
  }
  return Status::OK();
}

}  // namespace

QueryExecutor::QueryExecutor(const RoadNetwork& network,
                             const StIndex& st_index,
                             LiveProfileManager& live,
                             int64_t delta_t_seconds,
                             const QueryExecutorOptions& options,
                             TenantRegistry* tenants)
    : network_(&network),
      st_index_(&st_index),
      delta_t_seconds_(delta_t_seconds),
      options_(options),
      live_(&live),
      tenants_(tenants),
      pool_(options.num_threads < 0
                ? 1
                : static_cast<size_t>(options.num_threads)) {
  // A shared registry keeps configs/counters consistent across every
  // executor over one engine; a standalone executor gets a private one.
  if (tenants_ == nullptr) {
    owned_tenants_ = std::make_unique<TenantRegistry>(options_.tenant_defaults);
    tenants_ = owned_tenants_.get();
  }
  if (options_.max_inflight > 0) {
    WfqOptions wfq_opt;
    wfq_opt.max_inflight = options_.max_inflight;
    wfq_opt.batch_share = options_.batch_share;
    wfq_opt.cost_based = options_.wfq_cost_based;
    wfq_ = std::make_unique<WfqAdmissionController>(wfq_opt, tenants_);
  }
  if (options_.result_cache_entries > 0) {
    ResultCacheOptions cache_opt;
    cache_opt.capacity = options_.result_cache_entries;
    cache_opt.shards = options_.result_cache_shards;
    cache_ = std::make_unique<ResultCache>(delta_t_seconds_, cache_opt);
    // Every cached executor gets the manager's Δt-slot eviction fan-out —
    // including MakeExecutor-created ones the engine does not know about.
    // Unregistered in the destructor, before cache_ dies.
    ResultCache* cache = cache_.get();
    live_listener_id_ = live_->AddInvalidationListener(
        [cache](int64_t begin_tod, int64_t end_tod) {
          cache->InvalidateTimeRange(begin_tod, end_tod);
        });
  }
}

QueryExecutor::~QueryExecutor() {
  if (live_listener_id_ != 0) {
    live_->RemoveInvalidationListener(live_listener_id_);
  }
}

StatusOr<RegionResult> QueryExecutor::Execute(const QueryPlan& plan) {
  return ExecuteFrontDoor(plan, /*batch=*/false);
}

StatusOr<RegionResult> QueryExecutor::ExecuteFrontDoor(const QueryPlan& plan,
                                                       bool batch) {
  // Root span for this query's tree (degrades to a child span when the
  // facade already opened one). All stage spans below record into it.
  obs::QueryTrace trace("query");
  Stopwatch wall_watch;
  std::optional<PlanKey> key;
  if (cache_ != nullptr) {
    key = MakePlanKey(plan);
    std::optional<RegionResult> hit;
    {
      obs::TraceSpan span("cache_lookup");
      hit = cache_->Lookup(*key);
    }
    if (hit) {
      tenants_->RecordCacheHit(plan.tenant);
      StatusOr<RegionResult> result = *std::move(hit);
      RecordQueryMetrics(wall_watch, result);
      return result;
    }
    tenants_->RecordCacheMiss(plan.tenant);
  }
  // Work already on this executor's pool (m-query legs, nested calls) was
  // admitted as part of its enclosing query; re-admitting it here could
  // shed or block mid-query. Admission gates external callers only.
  bool ticket = false;
  if (wfq_ != nullptr && !pool_.OnWorkerThread()) {
    if (batch) {
      // Batch plans take a ticket or shed — they never wait, and they
      // count against the batch fair share even on the inline path.
      STRR_RETURN_IF_ERROR(TryAdmitBatchTicket(plan.tenant));
    } else {
      STRR_RETURN_IF_ERROR(AdmitSingle(plan.tenant));
    }
    ticket = true;
  }
  Stopwatch exec_watch;
  StatusOr<RegionResult> result = ExecutePinned(plan);
  if (ticket) {
    ReleaseTicket(plan.tenant, batch,
                  /*cost_us=*/exec_watch.ElapsedMillis() * 1000.0);
  }
  if (result.ok()) tenants_->RecordCompletion(plan.tenant, result->stats.io);
  if (key && result.ok()) MaybeCacheInsert(*key, *result);
  RecordQueryMetrics(wall_watch, result);
  return result;
}

Status QueryExecutor::AdmitSingle(TenantId tenant) {
  obs::TraceSpan span("admission_wait");
  bool timed = obs::MetricsRegistry::Global().enabled();
  Stopwatch watch;
  Status admitted = wfq_->Admit(tenant);
  if (timed) {
    AdmissionWaitHistogram().Record(
        static_cast<uint64_t>(watch.ElapsedMicros()));
  }
  if (!admitted.ok()) AdmissionShedCounter().Add();
  return admitted;
}

Status QueryExecutor::TryAdmitBatchTicket(TenantId tenant) {
  Status admitted = wfq_->TryAdmitBatch(tenant);
  if (!admitted.ok()) AdmissionShedCounter().Add();
  return admitted;
}

void QueryExecutor::ReleaseTicket(TenantId tenant, bool batch,
                                  double cost_us) {
  if (batch) {
    wfq_->ReleaseBatch(tenant, cost_us);
  } else {
    wfq_->Release(tenant, cost_us);
  }
}

StatusOr<RegionResult> QueryExecutor::RunAdmitted(const QueryPlan& plan,
                                                  const PlanKey* key,
                                                  bool batch_ticket) {
  // Batch plans fanned to pool workers root their trace here (lookup and
  // admission already happened on the submitting thread).
  obs::QueryTrace trace("query");
  Stopwatch exec_watch;
  StatusOr<RegionResult> result = ExecutePinned(plan);
  if (batch_ticket) {
    ReleaseTicket(plan.tenant, /*batch=*/true,
                  /*cost_us=*/exec_watch.ElapsedMillis() * 1000.0);
  }
  if (result.ok()) tenants_->RecordCompletion(plan.tenant, result->stats.io);
  if (key != nullptr && result.ok()) {
    MaybeCacheInsert(*key, *result);
  }
  RecordQueryMetrics(exec_watch, result);
  return result;
}

StatusOr<RegionResult> QueryExecutor::ExecutePinned(const QueryPlan& plan) {
  // Pin one snapshot for the whole query (legs included) — after
  // admission, so a query waiting in the admission queue doesn't hold a
  // version alive (and then answers with the freshest snapshot anyway).
  SnapshotRef snap = [&] {
    obs::TraceSpan span("snapshot_pin");
    return live_->Acquire();
  }();
  return ExecutePlan(plan, snap);
}

void QueryExecutor::MaybeCacheInsert(const PlanKey& key,
                                     const RegionResult& result) {
  if (cache_ == nullptr) return;
  obs::TraceSpan span("cache_insert");
  // Never let an insert computed on a superseded snapshot outlive that
  // snapshot's Δt-slot invalidation: skip when a newer version already
  // published, and re-check after inserting — a publish can land between
  // the check and the insert, and its eviction pass must not be undone by
  // our late insert. (Publish stores the version before firing evictions,
  // all seq_cst: if the post-insert load still reads our version, every
  // eviction that could cover this entry happens after the insert and
  // removes it normally.)
  if (result.stats.snapshot_version != live_->version()) return;
  cache_->Insert(key, result);
  if (result.stats.snapshot_version != live_->version()) cache_->Erase(key);
}

std::vector<StatusOr<RegionResult>> QueryExecutor::ExecuteBatch(
    std::span<const QueryPlan> plans) {
  std::vector<StatusOr<RegionResult>> results;
  results.reserve(plans.size());
  if (pool_.OnWorkerThread() || pool_.num_threads() <= 1) {
    // Already on a pool worker (nested batch) or no parallelism available:
    // run inline — submitting and blocking here could starve the pool.
    // Front-door steps still apply per plan with batch semantics (take a
    // ticket or shed, never wait; admission is skipped on a worker
    // thread).
    for (const QueryPlan& plan : plans) {
      results.push_back(ExecuteFrontDoor(plan, /*batch=*/true));
    }
    return results;
  }
  // Fan out. Cache lookups and admission happen here on the caller thread
  // so capacity is enforced at submission time: plans that do not fit are
  // shed in place instead of piling up in the (unbounded) pool queue.
  std::vector<std::future<StatusOr<RegionResult>>> futures(plans.size());
  std::vector<std::optional<StatusOr<RegionResult>>> immediate(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    const QueryPlan& plan = plans[i];
    std::optional<PlanKey> key;
    if (cache_ != nullptr) {
      Stopwatch hit_watch;
      key = MakePlanKey(plan);
      if (std::optional<RegionResult> hit = cache_->Lookup(*key)) {
        tenants_->RecordCacheHit(plan.tenant);
        immediate[i].emplace(*std::move(hit));
        // Served here, so recorded here: query metrics must not depend on
        // whether the batch ran inline (ExecuteFrontDoor) or fanned out.
        RecordQueryMetrics(hit_watch, *immediate[i]);
        continue;
      }
      tenants_->RecordCacheMiss(plan.tenant);
    }
    bool ticket = false;
    if (wfq_ != nullptr) {
      Status admitted = TryAdmitBatchTicket(plan.tenant);
      if (!admitted.ok()) {
        immediate[i].emplace(std::move(admitted));
        continue;
      }
      ticket = true;
    }
    futures[i] = pool_.Submit(
        [this, &plan, key = std::move(key),
         ticket]() -> StatusOr<RegionResult> {
          return RunAdmitted(plan, key ? &*key : nullptr,
                             /*batch_ticket=*/ticket);
        });
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    if (immediate[i].has_value()) {
      results.push_back(std::move(*immediate[i]));
    } else {
      results.push_back(futures[i].get());
    }
  }
  return results;
}

std::vector<StatusOr<RegionResult>> QueryExecutor::ExecuteRaw(
    std::span<const QueryPlan> plans, const SnapshotRef& snap) {
  std::vector<StatusOr<RegionResult>> results;
  results.reserve(plans.size());
  if (pool_.OnWorkerThread() || pool_.num_threads() <= 1) {
    for (const QueryPlan& plan : plans) {
      results.push_back(ExecutePlan(plan, snap));
    }
    return results;
  }
  std::vector<std::future<StatusOr<RegionResult>>> futures;
  futures.reserve(plans.size());
  for (const QueryPlan& plan : plans) {
    // `snap` stays valid: the enclosing query's frame holds the pin and
    // blocks on the futures below before returning.
    futures.push_back(
        pool_.Submit([this, &plan, &snap]() -> StatusOr<RegionResult> {
          return ExecutePlan(plan, snap);
        }));
  }
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

QueryExecutor::FrontDoorStats QueryExecutor::front_door_stats() const {
  FrontDoorStats out;
  if (cache_ != nullptr) {
    ResultCache::Stats c = cache_->stats();
    out.cache_hits = c.hits;
    out.cache_misses = c.misses;
    out.cache_insertions = c.insertions;
    out.cache_evictions = c.evictions;
    out.cache_invalidated = c.invalidated;
  }
  {
    ExpansionContextPool::Stats p = ExpansionContextPool::Global().stats();
    out.ctx_pool_acquires = p.acquires;
    out.ctx_pool_reuses = p.reuses;
  }
  if (wfq_ != nullptr) {
    WfqAdmissionController::Stats a = wfq_->stats();
    out.admitted = a.admitted;
    out.shed = a.shed;
  }
  out.tenants = tenants_->Snapshot();
  ThreadPool::Stats p = pool_.stats();
  out.pool_submitted = p.submitted;
  out.pool_completed = p.completed;
  out.pool_queue_depth = p.queue_depth;
  out.snapshot_version = live_->version();
  return out;
}

StatusOr<RegionResult> QueryExecutor::ExecutePlan(const QueryPlan& plan,
                                                  const SnapshotRef& snap) {
  STRR_RETURN_IF_ERROR(ValidatePlan(plan));
  StatusOr<RegionResult> result = [&]() -> StatusOr<RegionResult> {
    switch (plan.strategy) {
      case QueryStrategy::kIndexed:
        return ExecuteIndexed(plan, snap);
      case QueryStrategy::kExhaustive:
        return ExecuteExhaustive(plan, snap);
      case QueryStrategy::kRepeatedS:
        return ExecuteRepeatedS(plan, snap);
    }
    return Status::Internal("QueryPlan: unknown strategy");
  }();
  if (result.ok()) result->stats.snapshot_version = snap.version();
  return result;
}

StatusOr<RegionResult> QueryExecutor::RunTraceBack(
    const BoundingRegions& regions, int64_t start_tod, int64_t duration,
    double prob, double setup_ms, const ScopedIoCounters& io_scope) {
  Stopwatch watch;
  obs::TraceSpan tbs_span("tbs", regions.max_region.size());
  STRR_ASSIGN_OR_RETURN(
      ReachabilityProbability oracle, [&] {
        obs::TraceSpan span("probability_oracle");
        return ReachabilityProbability::Create(*st_index_,
                                               regions.start_segments,
                                               start_tod, delta_t_seconds_,
                                               duration);
      }());

  RegionResult result;
  if (oracle.StartHasNoTraffic()) {
    // No trajectory ever left the start window on any day: every segment's
    // probability is identically zero, so the Prob-region is empty. (The
    // bounding regions come from speed *statistics* and can be non-empty
    // even then; trusting them here would fabricate reachability.)
    result.segments.clear();
  } else {
    STRR_ASSIGN_OR_RETURN(
        TbsOutcome tbs,
        TraceBackSearch(*network_, regions, prob, oracle));
    result.segments = std::move(tbs.region);
  }
  result.total_length_m = network_->LengthOfSegments(result.segments);
  result.stats.wall_ms = setup_ms + watch.ElapsedMillis();
  result.stats.sum_wall_ms = result.stats.wall_ms;
  result.stats.segments_verified = oracle.verifications();
  result.stats.time_lists_read = oracle.time_lists_read();
  result.stats.io = io_scope.stats();
  result.stats.max_region_segments = regions.max_region.size();
  result.stats.min_region_segments = regions.min_region.size();
  result.stats.boundary_segments = regions.boundary.size();
  return result;
}

StatusOr<RegionResult> QueryExecutor::ExecuteIndexed(const QueryPlan& plan,
                                                     const SnapshotRef& snap) {
  Stopwatch watch;
  ScopedIoCounters io_scope;  // attributes this query's storage traffic
  SearchMetrics metrics;
  BoundingRegions regions;
  if (plan.IsMultiLocation()) {
    obs::TraceSpan span("mqmb_search");
    STRR_ASSIGN_OR_RETURN(
        regions, MqmbSearch(*network_, snap.con_index(), snap.profile(),
                            plan.AllStartSegments(), plan.start_tod,
                            plan.duration, &metrics));
  } else {
    obs::TraceSpan span("sqmb_search");
    STRR_ASSIGN_OR_RETURN(
        regions,
        SqmbSearchSet(*network_, snap.con_index(), plan.location_starts[0],
                      plan.start_tod, plan.duration, &metrics));
  }
  StatusOr<RegionResult> result =
      RunTraceBack(regions, plan.start_tod, plan.duration, plan.prob,
                   watch.ElapsedMillis(), io_scope);
  if (result.ok()) {
    result->stats.segments_expanded = metrics.segments_expanded;
    result->stats.heap_pops = metrics.heap_pops;
  }
  return result;
}

StatusOr<RegionResult> QueryExecutor::ExecuteExhaustive(
    const QueryPlan& plan, const SnapshotRef& snap) {
  ScopedIoCounters io_scope;
  SQuery query{plan.locations[0], plan.start_tod, plan.duration, plan.prob};
  STRR_ASSIGN_OR_RETURN(
      RegionResult result,
      ExhaustiveSearch(*st_index_, snap.profile(), query, delta_t_seconds_,
                       plan.location_starts[0]));
  result.stats.sum_wall_ms = result.stats.wall_ms;
  // ES computes stats.io as an engine-global delta (fine for its
  // standalone single-threaded callers); under the executor the scoped
  // per-thread counters are authoritative.
  result.stats.io = io_scope.stats();
  return result;
}

StatusOr<RegionResult> QueryExecutor::ExecuteRepeatedS(
    const QueryPlan& plan, const SnapshotRef& snap) {
  Stopwatch watch;

  // One independent single-location indexed leg per query location.
  std::vector<QueryPlan> legs;
  legs.reserve(plan.locations.size());
  for (size_t i = 0; i < plan.locations.size(); ++i) {
    QueryPlan leg;
    leg.strategy = QueryStrategy::kIndexed;
    leg.locations = {plan.locations[i]};
    leg.location_starts = {plan.location_starts[i]};
    leg.start_tod = plan.start_tod;
    leg.duration = plan.duration;
    leg.prob = plan.prob;
    legs.push_back(std::move(leg));
  }

  std::vector<StatusOr<RegionResult>> leg_results;
  obs::TraceSpan legs_span("mquery_legs", legs.size());
  if (options_.parallel_mquery_legs) {
    // ExecuteRaw degrades to an inline sequential loop on a pool worker or
    // a single-thread pool — one fan-out decision point. Legs bypass the
    // front door: the m-query was admitted (and snapshot-pinned, and will
    // be cached) as one unit, so every leg reads the same version.
    leg_results = ExecuteRaw(legs, snap);
  } else {
    leg_results.reserve(legs.size());
    for (const QueryPlan& leg : legs) {
      leg_results.push_back(ExecutePlan(leg, snap));
    }
  }

  // Merge in location order so the result is independent of scheduling.
  RegionResult merged;
  std::vector<SegmentId> all;
  for (auto& leg_result : leg_results) {
    if (!leg_result.ok()) return leg_result.status();
    const RegionResult& r = *leg_result;
    all.insert(all.end(), r.segments.begin(), r.segments.end());
    merged.stats.sum_wall_ms += r.stats.wall_ms;
    merged.stats.segments_verified += r.stats.segments_verified;
    merged.stats.time_lists_read += r.stats.time_lists_read;
    merged.stats.segments_expanded += r.stats.segments_expanded;
    merged.stats.heap_pops += r.stats.heap_pops;
    merged.stats.max_region_segments += r.stats.max_region_segments;
    merged.stats.min_region_segments += r.stats.min_region_segments;
    merged.stats.boundary_segments += r.stats.boundary_segments;
    // Per-leg scoped counters are exact and disjoint (each leg counts on
    // its own thread), so the sum attributes the whole m-query without
    // double counting — unlike the engine-global delta PR 1 used, which
    // absorbed every concurrent neighbour's traffic.
    merged.stats.io += r.stats.io;
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  merged.segments = std::move(all);
  merged.total_length_m = network_->LengthOfSegments(merged.segments);
  merged.stats.wall_ms = watch.ElapsedMillis();
  return merged;
}

}  // namespace strr
