// QueryExecutor: the query front door plus the "execute" half of the
// plan -> execute pipeline.
//
// Owns a ThreadPool shared by every query it runs and executes QueryPlans
// produced by the QueryPlanner:
//  * Execute()      — one plan, on the calling thread;
//  * ExecuteBatch() — fans independent plans across the pool and returns
//    one StatusOr per plan (a failing plan never poisons its neighbours);
//  * inside one kRepeatedS m-query, the per-location SQMB+TBS legs can run
//    in parallel on the same pool.
//
// Front door (both opt-in via options, off by default so the facade
// reproduces the paper's measurements exactly):
//  * ResultCache — plans are keyed canonically (MakePlanKey) and identical
//    plans are served from cache bit-identically, with Δt-slot
//    invalidation wired to speed-profile/congestion refreshes through
//    InvalidateCachedTimeRange;
//  * AdmissionController — bounded outstanding work with typed
//    ResourceExhausted shedding; batch plans shed instead of queueing
//    unboundedly, and batches keep at most a configured share of the
//    tickets so they cannot starve single queries. Work already running
//    on this executor's own pool (m-query legs, nested batches) is never
//    re-admitted: the enclosing query was admitted as one unit.
//  * Multi-tenant fairness (tenant_fairness, off by default) — admission
//    becomes tenant-aware: per-tenant quotas with typed per-tenant
//    shedding and deficit-round-robin weighted fair dispatch
//    (core/wfq_admission.h), cache entries are tenant-scoped (or
//    explicitly shared via tenant_shared_cache), and front_door_stats()
//    carries per-tenant hit/shed/in-flight/io counters from the shared
//    TenantRegistry. Tenancy never changes a computed region — only who
//    waits, who sheds, and how counters are attributed.
//
// Concurrency contract: every index read path underneath (ST-Index
// time-list reads through the BufferPool, lazy Con-Index materialization,
// speed-profile lookups) is concurrent-read-safe, so one executor over one
// engine's indexes can run arbitrarily many plans at once. Results are
// bit-identical to sequential execution — threading only changes the
// schedule, never the region (lazy Con-Index build races keep the first
// deterministic result; batch/leg merges happen in submission order).
// Per-query stats.io is attributed through a thread-local ScopedIoCounters
// in the storage layer, so concurrent queries never contaminate each
// other's I/O deltas.
//
// Live ingestion: when constructed with a LiveProfileManager, every query
// pins one immutable index snapshot (epoch pin + pointer load) at its
// front door and executes entirely against that version — profile reads
// and Con-Index tables can neither tear nor dangle while ingestion
// publishes refreshes concurrently, and stats.snapshot_version records
// exactly which version answered. An m-query's legs share their enclosing
// query's snapshot, so a composite result is never stitched from two
// versions. Without a manager, queries read the engine-built indexes
// directly (snapshot_version 0) with zero overhead.
#ifndef STRR_CORE_QUERY_EXECUTOR_H_
#define STRR_CORE_QUERY_EXECUTOR_H_

#include <memory>
#include <span>
#include <vector>

#include "core/admission_controller.h"
#include "core/result_cache.h"
#include "core/tenant_registry.h"
#include "core/wfq_admission.h"
#include "index/con_index.h"
#include "index/speed_profile.h"
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
  /// Worker threads for batches and parallel m-query legs. 0 = one per
  /// hardware thread.
  int num_threads = 0;
  /// Run the per-location legs of a kRepeatedS plan on the pool (when not
  /// already on a pool worker). Off = legs run sequentially, reproducing
  /// the paper's single-threaded m-query baseline timings.
  bool parallel_mquery_legs = true;
  /// Result-cache capacity in entries; 0 disables caching. Off by default:
  /// cached results replay the original execution's stats, which would
  /// skew the paper-reproduction measurements.
  size_t result_cache_entries = 0;
  /// Result-cache shard count (locks); only meaningful when caching is on.
  size_t result_cache_shards = 8;
  /// TinyLFU-style doorkeeper for the result cache: a counting-Bloom
  /// frequency sketch gates evictions so one-shot cold-location scans
  /// cannot churn hot entries out (see ResultCacheOptions). Off by
  /// default.
  bool result_cache_doorkeeper = false;
  /// Segmented-LRU (full TinyLFU) protected share of each cache shard, in
  /// [0, 1); 0 keeps plain LRU. See ResultCacheOptions::protected_share.
  double result_cache_protected_share = 0.0;
  /// Per-tenant cache capacity envelope, in (0, 1]; 0 = off. See
  /// ResultCacheOptions::tenant_capacity_share.
  double result_cache_tenant_share = 0.0;
  /// Max admitted-and-outstanding queries; 0 disables admission control.
  size_t max_inflight = 0;
  /// Max single-query callers blocked waiting for admission. With
  /// tenant_fairness on, this caps the *default* per-tenant waiting
  /// bound (explicitly configured tenants may exceed it).
  size_t max_queued = 64;
  /// Share of max_inflight all batch work combined may hold, in (0, 1].
  double batch_share = 0.5;
  // --- Multi-tenant front door (off by default: single-tenant behavior is
  // bit-identical to the plain admission path) -------------------------------
  /// Tenant-aware admission: per-tenant in-flight quotas and
  /// deficit-round-robin weighted fair queueing over plan.tenant, layered
  /// where the global AdmissionController would sit (requires
  /// max_inflight > 0 to actually gate; see core/wfq_admission.h). Also
  /// turns on per-tenant hit/shed/in-flight/io counters in
  /// front_door_stats() via the TenantRegistry.
  bool tenant_fairness = false;
  /// Cost-based DRR: charge each WFQ grant the tenant's measured average
  /// query cost in microseconds instead of one count, so fairness holds in
  /// CPU time (see WfqOptions::cost_based). Requires tenant_fairness and
  /// max_inflight > 0.
  bool wfq_cost_based = false;
  /// Serve cache entries across tenants from one shared key space instead
  /// of tenant-scoped entries. Results are bit-identical across tenants by
  /// construction, so sharing only changes isolation (cross-tenant timing
  /// visibility), never answers.
  bool tenant_shared_cache = false;
  /// Defaults for tenants never Configure()d in the registry (weight,
  /// quota, queue bound). Only meaningful when tenant_fairness is on and
  /// the executor creates its own registry (an engine-provided registry
  /// carries its own defaults).
  TenantConfig tenant_defaults;
};

/// Runs query plans over one engine's index stack. Thread-safe: Execute
/// and ExecuteBatch may be called concurrently from any thread.
class QueryExecutor {
 public:
  /// All referenced structures must outlive the executor. When `live` is
  /// non-null, queries pin snapshots from it instead of reading `con_index`
  /// / `profile` directly (those still serve as the version-0 base).
  /// `tenants` (optional) is the shared per-tenant config/stats registry
  /// — pass one registry to every executor over an engine so quotas and
  /// counters aggregate across them. Null + tenant_fairness on = the
  /// executor creates a private registry from options.tenant_defaults.
  QueryExecutor(const RoadNetwork& network, const StIndex& st_index,
                const ConIndex& con_index, const SpeedProfile& profile,
                int64_t delta_t_seconds,
                const QueryExecutorOptions& options = {},
                LiveProfileManager* live = nullptr,
                TenantRegistry* tenants = nullptr);

  /// Unregisters this executor's cache from the live manager's
  /// invalidation fan-out (registered automatically at construction when
  /// both live mode and caching are on — every executor's cache sees
  /// publishes, including MakeExecutor-created ones). The manager must
  /// outlive the executor.
  ~QueryExecutor();

  /// Executes one plan on the calling thread (kRepeatedS legs may still
  /// fan out, see QueryExecutorOptions::parallel_mquery_legs), routed
  /// through the front door: cache lookup first, then admission (which
  /// may block in the bounded queue or shed with ResourceExhausted).
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

  /// The admission controller, or nullptr when disabled (or when the
  /// tenant-aware scheduler replaced it — see wfq_admission()).
  AdmissionController* admission_controller() { return admission_.get(); }

  /// The tenant-aware WFQ admission scheduler, or nullptr when
  /// tenant_fairness is off (or admission is unbounded).
  WfqAdmissionController* wfq_admission() { return wfq_.get(); }

  /// The per-tenant config/stats registry this executor attributes to, or
  /// nullptr when tenancy is off.
  TenantRegistry* tenant_registry() { return tenants_; }

  /// Evicts cached results whose Δt-slot window intersects
  /// [begin_tod, end_tod) — call after a congestion / speed-profile
  /// refresh of that time range. No-op when caching is off.
  void InvalidateCachedTimeRange(int64_t begin_tod, int64_t end_tod);

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
    /// Current live snapshot version (0 when live ingestion is off).
    uint64_t snapshot_version = 0;
    /// ExpansionContext pool counters (process-global — the pool is shared
    /// by queries, Con-Index builds and live rebuilds; reuses / acquires
    /// is the steady-state "no allocation per search" hit rate).
    uint64_t ctx_pool_acquires = 0;
    uint64_t ctx_pool_reuses = 0;
    /// Entries the result-cache doorkeeper refused to admit (0 when off).
    uint64_t cache_doorkeeper_rejects = 0;
    /// Per-tenant breakdown (empty when tenancy is off), snapshotted
    /// from the TenantRegistry this executor attributes to. With a
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
  /// The index surfaces one query reads: either the engine-built statics
  /// (version 0) or one pinned live snapshot. Plain pointers — the pin
  /// that keeps a snapshot alive is held in the enclosing query's frame
  /// (ExecuteFrontDoor / RunAdmitted) and outlives every view use,
  /// including m-query legs running on pool workers.
  struct IndexView {
    const ConIndex* con_index = nullptr;
    const SpeedProfile* profile = nullptr;
    uint64_t version = 0;
  };

  /// The engine-built indexes (used when live ingestion is off).
  IndexView StaticView() const { return {con_index_, profile_, 0}; }

  /// Validates and dispatches one plan against `view` (no front door).
  /// Runs on the calling thread; used for admitted work and m-query legs.
  StatusOr<RegionResult> ExecutePlan(const QueryPlan& plan,
                                     const IndexView& view);

  /// The front door for one plan on the calling thread: cache lookup,
  /// admission (batch semantics = take-or-shed, single = bounded wait),
  /// snapshot pin, execute, release, cache insert.
  StatusOr<RegionResult> ExecuteFrontDoor(const QueryPlan& plan, bool batch);

  // One admission surface over the two controllers (at most one of
  // wfq_/admission_ is active; the plain controller ignores the tenant).
  // Every front-door site goes through these so the tenant-aware and
  // plain paths can never diverge per call site.
  bool AdmissionEnabled() const {
    return wfq_ != nullptr || admission_ != nullptr;
  }
  Status AdmitSingle(TenantId tenant);
  Status TryAdmitBatchTicket(TenantId tenant);
  /// `cost_us` (>= 0) is the query's measured execution wall time; it
  /// feeds the tenant's cost EWMA under cost-based DRR (ignored by the
  /// plain controller). Negative = unmeasured.
  void ReleaseTicket(TenantId tenant, bool batch, double cost_us = -1.0);

  /// Shared tail of the front-door paths: pin a snapshot, run, release the
  /// admission ticket (when held), insert into the cache on success.
  StatusOr<RegionResult> RunAdmitted(const QueryPlan& plan,
                                     const PlanKey* key, bool batch_ticket);

  /// Pins one snapshot (when live) and executes the plan against it; the
  /// pin spans the whole execution, m-query legs included.
  StatusOr<RegionResult> ExecutePinned(const QueryPlan& plan);

  /// Inserts `result` under `key` unless a newer snapshot was published
  /// while it executed (a stale insert could serve a superseded version
  /// after its Δt-slots were already invalidated).
  void MaybeCacheInsert(const PlanKey& key, const RegionResult& result,
                        TenantId tenant);

  /// Executes `plans` against one shared `view` with no admission or
  /// caching — the raw fan-out PR 1 shipped, kept for m-query legs
  /// (admitted, and snapshot-pinned, as one unit with their m-query).
  std::vector<StatusOr<RegionResult>> ExecuteRaw(
      std::span<const QueryPlan> plans, const IndexView& view);

  StatusOr<RegionResult> ExecuteIndexed(const QueryPlan& plan,
                                        const IndexView& view);
  StatusOr<RegionResult> ExecuteExhaustive(const QueryPlan& plan,
                                           const IndexView& view);
  StatusOr<RegionResult> ExecuteRepeatedS(const QueryPlan& plan,
                                          const IndexView& view);

  /// Shared tail of the indexed paths: probability oracle, TBS, stats.
  /// `io_scope` is the attribution scope covering this query's execution.
  StatusOr<RegionResult> RunTraceBack(const BoundingRegions& regions,
                                      int64_t start_tod, int64_t duration,
                                      double prob, double setup_ms,
                                      const ScopedIoCounters& io_scope);

  const RoadNetwork* network_;
  const StIndex* st_index_;
  const ConIndex* con_index_;
  const SpeedProfile* profile_;
  int64_t delta_t_seconds_;
  QueryExecutorOptions options_;
  LiveProfileManager* live_;                    // null = live ingestion off
  uint64_t live_listener_id_ = 0;               // 0 = not registered
  std::unique_ptr<ResultCache> cache_;          // null = caching off
  std::unique_ptr<AdmissionController> admission_;  // null = admission off
  /// Tenant-aware admission (replaces admission_ when tenant_fairness is
  /// on); null = plain/global admission or none.
  std::unique_ptr<WfqAdmissionController> wfq_;
  /// Shared registry (engine-owned), or owned_tenants_.get(), or null
  /// when tenancy is off. Used for per-tenant cache/io attribution even
  /// when admission itself is unbounded.
  TenantRegistry* tenants_ = nullptr;
  std::unique_ptr<TenantRegistry> owned_tenants_;
  ThreadPool pool_;
};

}  // namespace strr

#endif  // STRR_CORE_QUERY_EXECUTOR_H_
