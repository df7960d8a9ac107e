// QueryExecutor: the query front door plus the "execute" half of the
// plan -> execute pipeline.
//
// Owns a ThreadPool shared by every query it runs and executes QueryPlans
// produced by the QueryPlanner:
//  * Execute()      — one plan, on the calling thread;
//  * ExecuteBatch() — fans independent plans across the pool and returns
//    one StatusOr per plan (a failing plan never poisons its neighbours).
// A kRepeatedS m-query runs its per-location SQMB+TBS legs in order on
// the thread that executes it, as the paper's m-query baseline does.
//
// Front door (caching and admission opt-in via options, off by default so
// the facade reproduces the paper's measurements exactly):
//  * ResultCache — one LRU per shard; plans are keyed canonically
//    (MakePlanKey, tenant-scoped) and identical plans are served from
//    cache bit-identically, with Δt-slot invalidation fired by the live
//    manager's publishes;
//  * WfqAdmissionController (max_inflight > 0) — bounded outstanding work
//    with typed ResourceExhausted shedding, per-tenant quotas and
//    deficit-round-robin weighted fair dispatch over plan.tenant
//    (core/wfq_admission.h). Single-tenant traffic is its default-tenant
//    case. Batch plans shed instead of queueing, and batches keep at most
//    batch_share of the tickets so they cannot starve single queries.
//    Work already running on this executor's own pool (nested batches)
//    is never re-admitted, and neither are m-query legs: the enclosing
//    query was admitted as one unit;
//  * TenantRegistry — per-tenant configs plus hit/shed/in-flight/io
//    counters, carried in front_door_stats(). Tenancy never changes a
//    computed region — only who waits, who sheds, and how counters are
//    attributed.
//
// Concurrency contract: every index read path underneath (ST-Index
// time-list reads through the BufferPool, lazy Con-Index materialization,
// speed-profile lookups) is concurrent-read-safe, so one executor over one
// engine's indexes can run arbitrarily many plans at once. Results are
// bit-identical to sequential execution — threading only changes the
// schedule, never the region (lazy Con-Index build races keep the first
// deterministic result; batch merges happen in submission order).
// Per-query stats.io is attributed through a thread-local ScopedIoCounters
// in the storage layer, so concurrent queries never contaminate each
// other's I/O deltas.
//
// Snapshots: every query pins one immutable index snapshot from the
// LiveProfileManager (epoch pin + pointer load) after admission and
// executes entirely against it — profile reads and Con-Index tables can
// neither tear nor dangle while ingestion publishes refreshes
// concurrently, and stats.snapshot_version records exactly which version
// answered (0 = the engine-built indexes). An m-query's legs share their
// enclosing query's snapshot, so a composite result is never stitched
// from two versions.
#ifndef STRR_CORE_QUERY_EXECUTOR_H_
#define STRR_CORE_QUERY_EXECUTOR_H_

#include <memory>
#include <span>
#include <vector>

#include "core/result_cache.h"
#include "core/tenant_registry.h"
#include "core/wfq_admission.h"
#include "index/st_index.h"
#include "live/live_profile_manager.h"
#include "query/bounding_region.h"
#include "query/query.h"
#include "query/query_plan.h"
#include "roadnet/road_network.h"
#include "storage/io_context.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace strr {

/// Executor construction knobs.
struct QueryExecutorOptions {
  /// Worker threads for ExecuteBatch. 0 = one per hardware thread.
  int num_threads = 0;
  /// Result-cache capacity in entries; 0 disables caching. Off by default:
  /// cached results replay the original execution's stats, which would
  /// skew the paper-reproduction measurements.
  size_t result_cache_entries = 0;
  /// Result-cache shard count (locks); only meaningful when caching is on.
  size_t result_cache_shards = 8;
  /// Max admitted-and-outstanding queries across all tenants; 0 disables
  /// admission control (see core/wfq_admission.h).
  size_t max_inflight = 0;
  /// Share of max_inflight all batch work combined may hold, in (0, 1].
  double batch_share = 0.5;
  /// Defaults for tenants never Configure()d in the registry (weight,
  /// quota, queue bound). Only used when the executor creates its own
  /// registry (an engine-provided registry carries its own defaults).
  TenantConfig tenant_defaults;
};

/// Runs query plans over one engine's index stack. Thread-safe: Execute
/// and ExecuteBatch may be called concurrently from any thread.
class QueryExecutor {
 public:
  /// All referenced structures must outlive the executor. Queries pin
  /// snapshots from `live`; its version 0 is the engine-built indexes.
  /// `tenants` (optional) is the shared per-tenant config/stats registry
  /// — pass one registry to every executor over an engine so configs and
  /// counters aggregate across them. Null = the executor creates a
  /// private registry from options.tenant_defaults.
  QueryExecutor(const RoadNetwork& network, const StIndex& st_index,
                LiveProfileManager& live, int64_t delta_t_seconds,
                const QueryExecutorOptions& options = {},
                TenantRegistry* tenants = nullptr);

  /// Unregisters this executor's cache from the live manager's
  /// invalidation fan-out (registered automatically at construction when
  /// caching is on). The manager must outlive the executor.
  ~QueryExecutor();

  /// Executes one plan on the calling thread, routed through the front
  /// door: cache lookup first, then admission (which may block in the
  /// bounded queue or shed with ResourceExhausted).
  StatusOr<RegionResult> Execute(const QueryPlan& plan);

  /// Executes independent plans concurrently across the pool; result i
  /// corresponds to plan i. Per-plan errors are reported in place — the
  /// rest of the batch still runs. Cache hits are served inline; the rest
  /// admit at submission time and plans that exceed capacity are shed in
  /// place with ResourceExhausted (never queued unboundedly). Safe to call
  /// from a pool worker (runs inline sequentially rather than deadlocking
  /// the pool on itself).
  std::vector<StatusOr<RegionResult>> ExecuteBatch(
      std::span<const QueryPlan> plans);

  // --- Front door ------------------------------------------------------------

  /// The plan-keyed result cache, or nullptr when disabled.
  ResultCache* result_cache() { return cache_.get(); }

  /// The WFQ admission controller, or nullptr when admission is
  /// unbounded (max_inflight == 0).
  WfqAdmissionController* wfq_admission() { return wfq_.get(); }

  /// The per-tenant config/stats registry this executor attributes to.
  TenantRegistry* tenant_registry() { return tenants_; }

  /// Snapshot of the front-door counters (zeroes when the corresponding
  /// feature is disabled). Pool counters are always live: together with
  /// the cache/admission numbers they answer "where is the latency" —
  /// queued behind workers (pool_queue_depth), shed at the door, or
  /// absorbed by the cache.
  struct FrontDoorStats {
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_insertions = 0;
    uint64_t cache_evictions = 0;
    uint64_t cache_invalidated = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t pool_submitted = 0;
    uint64_t pool_completed = 0;
    size_t pool_queue_depth = 0;
    /// Current snapshot version (0 until the first publish).
    uint64_t snapshot_version = 0;
    /// ExpansionContext pool counters (process-global — the pool is shared
    /// by queries, Con-Index builds and live rebuilds; reuses / acquires
    /// is the steady-state "no allocation per search" hit rate).
    uint64_t ctx_pool_acquires = 0;
    uint64_t ctx_pool_reuses = 0;
    /// Per-tenant breakdown, snapshotted from the TenantRegistry this
    /// executor attributes to (tenants never seen are absent). With a
    /// private registry (standalone executor) the per-tenant
    /// admitted/shed sum to the global counters above and
    /// cache_hits/cache_misses to the global cache counters; with the
    /// engine-shared registry the breakdown is REGISTRY-wide — it
    /// aggregates every executor sharing it, while the scalar counters
    /// above remain this executor's own, so the sums only match when one
    /// executor serves the engine. io is the per-tenant slice of the
    /// ScopedIoCounters attribution (exact and disjoint either way).
    std::vector<TenantCounters> tenants;
  };
  FrontDoorStats front_door_stats() const;

  ThreadPool& thread_pool() { return pool_; }
  int64_t delta_t_seconds() const { return delta_t_seconds_; }

 private:
  /// Validates and dispatches one plan against the pinned `snap` (no
  /// front door). Runs on the calling thread; used for admitted work and
  /// m-query legs. The pin is held in the enclosing query's frame
  /// (ExecuteFrontDoor / RunAdmitted) and outlives every use, m-query
  /// legs included.
  StatusOr<RegionResult> ExecutePlan(const QueryPlan& plan,
                                     const SnapshotRef& snap);

  /// The front door for one plan on the calling thread: cache lookup,
  /// admission (batch semantics = take-or-shed, single = bounded wait),
  /// snapshot pin, execute, release, cache insert.
  StatusOr<RegionResult> ExecuteFrontDoor(const QueryPlan& plan, bool batch);

  // Admission wrappers: trace span, wait histogram and shed counter
  // around the WFQ controller. Call only when wfq_ is non-null.
  Status AdmitSingle(TenantId tenant);
  Status TryAdmitBatchTicket(TenantId tenant);
  void ReleaseTicket(TenantId tenant, bool batch);

  /// Shared tail of the front-door paths: pin a snapshot, run, release the
  /// admission ticket (when held), insert into the cache on success.
  StatusOr<RegionResult> RunAdmitted(const QueryPlan& plan,
                                     const PlanKey* key, bool batch_ticket);

  /// Pins one snapshot and executes the plan against it; the pin spans
  /// the whole execution, m-query legs included.
  StatusOr<RegionResult> ExecutePinned(const QueryPlan& plan);

  /// Inserts `result` under `key` unless a newer snapshot was published
  /// while it executed (a stale insert could serve a superseded version
  /// after its Δt-slots were already invalidated).
  void MaybeCacheInsert(const PlanKey& key, const RegionResult& result);

  StatusOr<RegionResult> ExecuteIndexed(const QueryPlan& plan,
                                        const SnapshotRef& snap);
  StatusOr<RegionResult> ExecuteExhaustive(const QueryPlan& plan,
                                           const SnapshotRef& snap);
  StatusOr<RegionResult> ExecuteRepeatedS(const QueryPlan& plan,
                                          const SnapshotRef& snap);

  /// Shared tail of the indexed paths: probability oracle, TBS, stats.
  /// `io_scope` is the attribution scope covering this query's execution.
  StatusOr<RegionResult> RunTraceBack(const BoundingRegions& regions,
                                      int64_t start_tod, int64_t duration,
                                      double prob, double setup_ms,
                                      const ScopedIoCounters& io_scope);

  const RoadNetwork* network_;
  const StIndex* st_index_;
  int64_t delta_t_seconds_;
  QueryExecutorOptions options_;
  LiveProfileManager* live_;
  uint64_t live_listener_id_ = 0;               // 0 = not registered
  std::unique_ptr<ResultCache> cache_;          // null = caching off
  std::unique_ptr<WfqAdmissionController> wfq_;  // null = admission off
  /// Shared registry (engine-owned) or owned_tenants_.get(); never null.
  TenantRegistry* tenants_ = nullptr;
  std::unique_ptr<TenantRegistry> owned_tenants_;
  ThreadPool pool_;
};

}  // namespace strr

#endif  // STRR_CORE_QUERY_EXECUTOR_H_
