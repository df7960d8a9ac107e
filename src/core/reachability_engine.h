// ReachabilityEngine: the library's public query facade.
//
// Owns the full index stack (speed profile, ST-Index, Con-Index) over one
// road network + trajectory database plus the plan -> execute pipeline
// (QueryPlanner + QueryExecutor), and answers:
//  * s-queries with SQMB + TBS (the paper's indexed path),
//  * s-queries with ES (the exhaustive baseline),
//  * m-queries with MQMB + shared TBS,
//  * m-queries as n independent s-queries (the paper's m-query baseline).
//
// The SQuery/MQuery methods are thin conveniences: they plan and execute
// in one call. Callers that batch many queries or pick strategies
// explicitly use planner() / executor() directly:
//
//   auto plans = ...;                      // engine.planner().PlanSQuery(...)
//   auto results = engine.executor().ExecuteBatch(plans);
//
// Typical one-shot use:
//   auto dataset = BuildDataset(DatasetOptions{...});
//   auto engine = ReachabilityEngine::Build(dataset->network, *dataset->store,
//                                           {.work_dir = "/tmp/strr"});
//   auto region = engine->SQueryIndexed({.location = p, .start_tod =
//       HMS(11), .duration = 10 * 60, .prob = 0.2});
#ifndef STRR_CORE_REACHABILITY_ENGINE_H_
#define STRR_CORE_REACHABILITY_ENGINE_H_

#include <memory>
#include <string>

#include "core/query_executor.h"
#include "index/con_index.h"
#include "index/speed_profile.h"
#include "index/st_index.h"
#include "live/epoch_manager.h"
#include "live/live_profile_manager.h"
#include "live/observation_ingestor.h"
#include "live/observation_journal.h"
#include "query/bounding_region.h"
#include "query/query.h"
#include "query/query_plan.h"
#include "traj/trajectory_store.h"
#include "util/result.h"

namespace strr {

/// Engine construction knobs.
struct EngineOptions {
  /// Directory for index files (the ST-Index posting file). Required.
  std::string work_dir;
  int64_t delta_t_seconds = 300;          ///< Δt (index slot & query window)
  int64_t profile_slot_seconds = 3600;    ///< speed-profile granularity
  size_t cache_pages = 4096;              ///< ST-Index buffer-pool pages
  uint32_t page_size = kDefaultPageSize;
  /// Worker threads for the query executor's batches. 0 = one per
  /// hardware thread, so executor().ExecuteBatch is fast out of the box;
  /// pass 1 for strictly sequential facade use to avoid idle workers
  /// (they cost address space, and join only at engine destruction).
  int query_threads = 0;
  // --- Query front door (see QueryExecutorOptions). Caching and admission
  // are off by default so the facade's per-query stats keep their
  // paper-reproduction semantics — cached results replay the original
  // execution's stats ------------------------------------------------------
  /// Result-cache capacity in entries; 0 disables caching.
  size_t result_cache_entries = 0;
  size_t result_cache_shards = 8;
  /// Max admitted-and-outstanding queries across all tenants; 0 disables
  /// admission control. Admission is weighted fair queueing over
  /// QueryPlan::tenant with per-tenant quotas and waiting bounds from the
  /// engine's TenantRegistry (see core/wfq_admission.h); single-tenant
  /// traffic runs as the default tenant.
  size_t max_inflight_queries = 0;
  /// Share of max_inflight_queries all batch work combined may hold.
  double batch_share = 0.5;
  /// Registry defaults for tenants never configured explicitly; its
  /// max_queued is the single-query waiting bound per tenant.
  TenantConfig tenant_defaults;
  /// Dynamic tenant configuration: when non-empty, the registry loads this
  /// file at build and re-loads it whenever its mtime changes —
  /// weights/quotas reconfigure under load without a restart (see
  /// TenantRegistry::StartFileWatch, whose default poll interval
  /// applies). Build fails if the initial load fails.
  std::string tenant_config_path;
  // --- Live ingestion (see live/). Every engine serves pinned snapshots
  // from a LiveProfileManager whose version 0 is the engine-built indexes;
  // these knobs decide whether anything publishes new versions ------------
  /// Creates the ObservationIngestor: OfferObservation enqueues into a
  /// batcher that publishes immutable snapshot versions, safe under full
  /// query load. Off by default (queries then always read version 0).
  bool live_ingestion = false;
  /// Batch window the ingestor coalesces over before publishing.
  int64_t live_batch_window_ms = 20;
  /// Ingestion queue bound; observations beyond it are dropped (counted).
  size_t live_queue_bound = 4096;
  /// Crash-safe durability for the live tier: every accepted observation
  /// batch is WAL-logged before it is published (the ack point), sealed
  /// into checksummed immutable tables, and replayed on engine build so
  /// the serving snapshots resume at exactly the last acked observation.
  /// Off by default (seed behavior: live state is in-memory only).
  /// Requires live_ingestion.
  bool live_durability = false;
  /// Journal directory; defaults to "<work_dir>/obs_wal" when empty.
  std::string live_durability_dir;
  /// Memtable byte threshold that seals a table and rotates the WAL.
  size_t live_memtable_flush_bytes = 1 << 20;
  /// fdatasync the WAL per batch (ack = stable storage). Off trades power-
  /// loss durability for throughput; process crashes still lose nothing.
  bool live_wal_sync_each_batch = true;
  // --- Storage engine (checkpoint / compaction; both off by default —
  // seed behavior is untouched with the knobs off). ----------------------
  /// Commit a live-profile checkpoint (then truncate the tables and WAL
  /// it covers) every N acked batches, so restart replays O(delta)
  /// instead of the whole stream. 0 disables. Requires live_durability.
  uint64_t live_checkpoint_interval_batches = 0;
  /// Background-merge runs of small observation tables into larger
  /// seq-deduplicated tables (rebuilt blooms, atomic swap), with the
  /// thresholds of ObservationJournalOptions. Requires live_durability.
  bool live_compaction = false;
  /// Location match radius for planning (see
  /// StIndexOptions::max_locate_distance_m); <= 0 restores unconditional
  /// snap-to-nearest.
  double max_locate_distance_m = 25000.0;
  // --- Observability (src/obs/; all off by default — with every knob off
  // the query path records nothing, allocates nothing, and results plus
  // bench rows stay bit-identical). These configure the PROCESS-GLOBAL
  // metrics registry and tracer: engines in one process share one export
  // surface, and the last Build() wins on conflicting settings. ---------
  /// Enable the global MetricsRegistry: counters/gauges/histograms across
  /// the whole stack (admission, cache, live tier, WAL, frontier, pools),
  /// scraped via obs::MetricsRegistry::Global().DumpPrometheus or
  /// DumpMetricsPrometheus() below.
  bool metrics = false;
  /// Record every Nth query's span tree into the flight recorder; 0
  /// disables sampling (tracing stays off unless slow_query_ms arms it).
  uint32_t trace_sample_n = 0;
  /// Flight-recorder ring capacity in span events.
  size_t flight_recorder_events = 4096;
  /// Queries slower than this log their full span tree through
  /// util/logging (one structured sink) and are force-recorded into the
  /// flight recorder; 0 disables the slow-query log.
  double slow_query_ms = 0.0;
};

/// Facade over the whole query stack. Thread-safe for concurrent queries:
/// the index read paths are concurrent-read-safe, the executor's pool is
/// shared, and every query pins an immutable index snapshot (see live/),
/// so speed refreshes through OfferObservation are safe under full query
/// load.
class ReachabilityEngine {
 public:
  /// Builds every index. The network and store must outlive the engine.
  static StatusOr<std::unique_ptr<ReachabilityEngine>> Build(
      const RoadNetwork& network, const TrajectoryStore& store,
      const EngineOptions& options);

  /// s-query via SQMB + TBS (indexed path).
  StatusOr<RegionResult> SQueryIndexed(const SQuery& query);

  /// s-query via exhaustive search (baseline).
  StatusOr<RegionResult> SQueryExhaustive(const SQuery& query);

  /// m-query via MQMB + one shared TBS pass.
  StatusOr<RegionResult> MQueryIndexed(const MQuery& query);

  /// m-query as n s-queries whose regions are unioned (baseline; pays
  /// duplicate verification in overlapping areas).
  StatusOr<RegionResult> MQueryRepeatedSQuery(const MQuery& query);

  // --- Pipeline --------------------------------------------------------------

  const QueryPlanner& planner() const { return *planner_; }
  QueryExecutor& executor() { return *executor_; }

  /// Builds an additional executor over this engine's indexes (e.g. a
  /// bench sweeping worker counts, or an isolated pool per tenant). It
  /// pins snapshots from the engine's live manager and attributes to the
  /// engine's tenant registry. The engine must outlive it.
  std::unique_ptr<QueryExecutor> MakeExecutor(
      const QueryExecutorOptions& options) const;

  // --- Introspection ---------------------------------------------------------

  const StIndex& st_index() const { return *st_index_; }
  StIndex& st_index() { return *st_index_; }
  /// The engine-built Con-Index and speed profile (snapshot version 0).
  const ConIndex& con_index() const { return *con_index_; }
  const SpeedProfile& speed_profile() const { return *profile_; }
  const RoadNetwork& network() const { return *network_; }
  int64_t delta_t_seconds() const { return options_.delta_t_seconds; }

  /// Resets ST-Index I/O counters and optionally drops the page cache.
  void ResetIoStats(bool drop_cache = false);

  // --- Live updates ----------------------------------------------------------

  /// Enqueues a fresh speed observation (e.g. a live congestion feed
  /// sample) into the ObservationIngestor — safe from any thread, under
  /// full concurrent query load: the refresh lands as the next published
  /// snapshot version, which invalidates the Con-Index tables and cached
  /// results it affects. False when the observation was rejected (invalid
  /// speed, queue full, or live ingestion off).
  bool OfferObservation(const SpeedObservation& observation);

  /// The snapshot manager every executor over this engine pins from.
  LiveProfileManager* live_manager() { return live_manager_.get(); }

  /// The observation ingestor, or nullptr when live ingestion is off.
  ObservationIngestor* ingestor() { return ingestor_.get(); }

  /// The live tier's durability journal, or nullptr when off.
  ObservationJournal* journal() { return journal_.get(); }

  /// What Build() recovered from the journal before serving.
  struct LiveRecoveryInfo {
    uint64_t recovered_batches = 0;   ///< acked batches replayed
    uint64_t last_seq = 0;            ///< highest acked sequence number
    uint64_t checkpoint_seq = 0;      ///< seq the loaded checkpoint covers
    bool wal_tail_torn = false;       ///< crash tore the final WAL record
    size_t tables_loaded = 0;
    size_t wal_files_loaded = 0;
    size_t replay_publishes = 0;      ///< snapshot publishes during replay
  };
  const LiveRecoveryInfo& live_recovery() const { return live_recovery_; }

  // --- Observability ---------------------------------------------------------

  /// Writes the flight recorder as Chrome trace-event JSON (loadable in
  /// chrome://tracing / Perfetto). Available whenever tracing was enabled
  /// (trace_sample_n or slow_query_ms); the recorder is process-global.
  Status DumpTrace(const std::string& path) const;

  /// Appends the global metrics registry in Prometheus text exposition
  /// format (convenience over obs::MetricsRegistry::Global()).
  void DumpMetricsPrometheus(std::string* out) const;

  /// The engine-wide tenant config/stats registry, shared by every
  /// executor over this engine. Configure tenants through Configure().
  TenantRegistry* tenant_registry() { return tenants_.get(); }

 private:
  ReachabilityEngine(const RoadNetwork& network, EngineOptions options)
      : network_(&network), options_(std::move(options)) {}

  /// Facade tail shared by the query methods: plan (a span over the
  /// query's `num_locations`), then execute.
  template <typename PlanFn>
  StatusOr<RegionResult> PlanAndExecute(size_t num_locations,
                                        PlanFn&& plan_fn);

  const RoadNetwork* network_;
  EngineOptions options_;
  std::unique_ptr<SpeedProfile> profile_;
  std::unique_ptr<StIndex> st_index_;
  std::unique_ptr<ConIndex> con_index_;
  // Snapshot stack. Sits between the indexes it snapshots and the
  // executor that pins those snapshots; destroyed in reverse order, so the
  // ingestor's batcher (null when live ingestion is off) joins before the
  // manager reclaims and the manager before the base indexes die.
  std::unique_ptr<EpochManager> epochs_;
  std::unique_ptr<LiveProfileManager> live_manager_;
  // Journal before ingestor: the ingestor appends to it from the batcher
  // thread, so it must be destroyed after the ingestor joins.
  std::unique_ptr<ObservationJournal> journal_;
  LiveRecoveryInfo live_recovery_;
  std::unique_ptr<ObservationIngestor> ingestor_;
  /// Per-tenant config/stats shared across executors.
  std::unique_ptr<TenantRegistry> tenants_;
  // Constructed after (and destroyed before) the indexes they reference.
  std::unique_ptr<QueryPlanner> planner_;
  std::unique_ptr<QueryExecutor> executor_;
};

}  // namespace strr

#endif  // STRR_CORE_REACHABILITY_ENGINE_H_
