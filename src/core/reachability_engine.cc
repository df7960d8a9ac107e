#include "core/reachability_engine.h"

#include <filesystem>

#include "live/recovery_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace strr {

StatusOr<std::unique_ptr<ReachabilityEngine>> ReachabilityEngine::Build(
    const RoadNetwork& network, const TrajectoryStore& store,
    const EngineOptions& options) {
  if (options.work_dir.empty()) {
    return Status::InvalidArgument("EngineOptions.work_dir is required");
  }
  if (options.live_durability && !options.live_ingestion) {
    return Status::InvalidArgument(
        "EngineOptions.live_durability requires live_ingestion");
  }
  if (options.live_checkpoint_interval_batches > 0 &&
      !options.live_durability) {
    return Status::InvalidArgument(
        "EngineOptions.live_checkpoint_interval_batches requires "
        "live_durability");
  }
  if (options.live_compaction && !options.live_durability) {
    return Status::InvalidArgument(
        "EngineOptions.live_compaction requires live_durability");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    return Status::IoError("cannot create work_dir " + options.work_dir +
                           ": " + ec.message());
  }
  auto engine = std::unique_ptr<ReachabilityEngine>(
      new ReachabilityEngine(network, options));

  // Observability is process-global (one scrape surface per process), so
  // the knobs configure the shared registry/tracer rather than an
  // engine-owned object. Deliberately one-way for metrics: building a
  // second engine without the knob must not disable a first engine's
  // scrape surface mid-flight.
  if (options.metrics) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  if (options.trace_sample_n > 0 || options.slow_query_ms > 0.0) {
    obs::TracerOptions trace_opt;
    trace_opt.sample_n = options.trace_sample_n;
    trace_opt.flight_recorder_events = options.flight_recorder_events;
    trace_opt.slow_query_ms = options.slow_query_ms;
    obs::Tracer::Global().Configure(trace_opt);
  }

  SpeedProfileOptions profile_opt;
  profile_opt.slot_seconds = options.profile_slot_seconds;
  STRR_ASSIGN_OR_RETURN(SpeedProfile profile,
                        SpeedProfile::Build(network, store, profile_opt));
  engine->profile_ = std::make_unique<SpeedProfile>(std::move(profile));

  StIndexOptions st_opt;
  st_opt.slot_seconds = options.delta_t_seconds;
  st_opt.posting_path = options.work_dir + "/st_index_postings.bin";
  st_opt.cache_pages = options.cache_pages;
  st_opt.page_size = options.page_size;
  st_opt.max_locate_distance_m = options.max_locate_distance_m;
  STRR_ASSIGN_OR_RETURN(engine->st_index_,
                        StIndex::Build(network, store, st_opt));

  ConIndexOptions con_opt;
  con_opt.delta_t_seconds = options.delta_t_seconds;
  STRR_ASSIGN_OR_RETURN(
      engine->con_index_,
      ConIndex::Create(network, *engine->profile_, con_opt));

  // Snapshot stack: every query pins a snapshot from the manager, whose
  // version 0 aliases the engine-built indexes. Epochs reclaim superseded
  // versions once something publishes (the ingestor, below).
  engine->epochs_ = std::make_unique<EpochManager>();
  engine->live_manager_ = std::make_unique<LiveProfileManager>(
      *engine->epochs_, *engine->profile_, *engine->con_index_);

  // One registry for the whole engine: the default executor and every
  // MakeExecutor-created one share tenant configs, quotas and counters.
  engine->tenants_ = std::make_unique<TenantRegistry>(options.tenant_defaults);

  engine->planner_ =
      std::make_unique<QueryPlanner>(network, *engine->st_index_);
  QueryExecutorOptions exec_opt;
  exec_opt.num_threads = options.query_threads;
  exec_opt.result_cache_entries = options.result_cache_entries;
  exec_opt.result_cache_shards = options.result_cache_shards;
  exec_opt.max_inflight = options.max_inflight_queries;
  exec_opt.batch_share = options.batch_share;
  engine->executor_ = engine->MakeExecutor(exec_opt);

  if (options.live_ingestion) {
    // Refresh fan-out needs no wiring here: every cached executor over the
    // live manager (the default one above and any MakeExecutor-created
    // one) registered its own Δt-slot eviction listener at construction.
    // Con-Index tables need no hook either — every publish carries its own
    // copy-on-invalidate index.
    if (options.live_durability) {
      // Durability bring-up happens before the ingestor exists, so no new
      // observations race the replay: recover the acked stream, fold it
      // into the serving snapshots, then open the journal for appends.
      ObservationJournalOptions journal_opt;
      journal_opt.dir = options.live_durability_dir.empty()
                            ? options.work_dir + "/obs_wal"
                            : options.live_durability_dir;
      journal_opt.memtable_flush_bytes = options.live_memtable_flush_bytes;
      journal_opt.sync_each_batch = options.live_wal_sync_each_batch;
      journal_opt.slot_seconds = options.profile_slot_seconds;
      journal_opt.checkpoint_interval_batches =
          options.live_checkpoint_interval_batches;
      journal_opt.compaction = options.live_compaction;
      STRR_ASSIGN_OR_RETURN(RecoveredLog recovered,
                            RecoveryManager::Recover(journal_opt.dir));
      engine->live_recovery_.recovered_batches = recovered.replay_batches();
      engine->live_recovery_.last_seq = recovered.last_seq;
      engine->live_recovery_.checkpoint_seq = recovered.checkpoint_seq;
      engine->live_recovery_.wal_tail_torn = recovered.wal_tail_torn;
      engine->live_recovery_.tables_loaded = recovered.tables_loaded;
      engine->live_recovery_.wal_files_loaded = recovered.wal_files_loaded;
      STRR_ASSIGN_OR_RETURN(
          engine->live_recovery_.replay_publishes,
          RecoveryManager::Replay(recovered, *engine->live_manager_));
      if (recovered.wal_tail_torn) {
        STRR_LOG(Warning)
            << "live recovery: WAL tail torn (crash mid-append); "
               "replayed through the last intact record, seq "
            << recovered.last_seq;
      }
      STRR_LOG(Info) << "live recovery: replayed "
                     << recovered.replay_batches() << " acked batches (seq "
                     << recovered.last_seq << ", checkpoint covers "
                     << recovered.checkpoint_seq << ") from "
                     << recovered.tables_loaded << " tables + "
                     << recovered.wal_files_loaded << " WAL files, "
                     << engine->live_recovery_.replay_publishes
                     << " snapshot publishes";
      STRR_ASSIGN_OR_RETURN(engine->journal_,
                            ObservationJournal::Open(journal_opt, recovered));
    }
    ObservationIngestorOptions ingest_opt;
    ingest_opt.queue_bound = options.live_queue_bound;
    ingest_opt.batch_window_ms = options.live_batch_window_ms;
    ingest_opt.journal = engine->journal_.get();
    engine->ingestor_ = std::make_unique<ObservationIngestor>(
        *engine->live_manager_, ingest_opt);
  }

  if (!options.tenant_config_path.empty()) {
    STRR_RETURN_IF_ERROR(
        engine->tenants_->StartFileWatch(options.tenant_config_path));
  }
  return engine;
}

std::unique_ptr<QueryExecutor> ReachabilityEngine::MakeExecutor(
    const QueryExecutorOptions& options) const {
  return std::make_unique<QueryExecutor>(*network_, *st_index_, *live_manager_,
                                         options_.delta_t_seconds, options,
                                         tenants_.get());
}

template <typename PlanFn>
StatusOr<RegionResult> ReachabilityEngine::PlanAndExecute(
    size_t num_locations, PlanFn&& plan_fn) {
  // Root the span tree at the facade so planning is part of the query's
  // trace; the executor's own root below degrades to a child span.
  obs::QueryTrace trace("request");
  StatusOr<QueryPlan> plan = [&] {
    obs::TraceSpan span("plan", num_locations);
    return plan_fn();
  }();
  // A junk location fails here with NotFound (StIndex::Locate's
  // max_locate_distance_m cap), before any posting page is read.
  if (!plan.ok()) return plan.status();
  return executor_->Execute(*plan);
}

StatusOr<RegionResult> ReachabilityEngine::SQueryIndexed(const SQuery& query) {
  return PlanAndExecute(1, [&] {
    return planner_->PlanSQuery(query, QueryStrategy::kIndexed);
  });
}

StatusOr<RegionResult> ReachabilityEngine::SQueryExhaustive(
    const SQuery& query) {
  return PlanAndExecute(1, [&] {
    return planner_->PlanSQuery(query, QueryStrategy::kExhaustive);
  });
}

StatusOr<RegionResult> ReachabilityEngine::MQueryIndexed(const MQuery& query) {
  return PlanAndExecute(query.locations.size(), [&] {
    return planner_->PlanMQuery(query, QueryStrategy::kIndexed);
  });
}

StatusOr<RegionResult> ReachabilityEngine::MQueryRepeatedSQuery(
    const MQuery& query) {
  return PlanAndExecute(query.locations.size(), [&] {
    return planner_->PlanMQuery(query, QueryStrategy::kRepeatedS);
  });
}

Status ReachabilityEngine::DumpTrace(const std::string& path) const {
  return obs::Tracer::Global().WriteChromeTrace(path);
}

void ReachabilityEngine::DumpMetricsPrometheus(std::string* out) const {
  obs::MetricsRegistry::Global().DumpPrometheus(out);
}

void ReachabilityEngine::ResetIoStats(bool drop_cache) {
  st_index_->ResetStorageStats();
  if (drop_cache) st_index_->DropCache();
}

bool ReachabilityEngine::OfferObservation(
    const SpeedObservation& observation) {
  if (ingestor_ == nullptr) return false;
  return ingestor_->Offer(observation);
}

}  // namespace strr
