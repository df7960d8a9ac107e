// Live ingestion subsystem tests: snapshot publication semantics
// (LiveProfileManager), batching/coalescing/backpressure
// (ObservationIngestor), the snapshot-pinned executor read path, the
// engine-level end-to-end flow with the FleetSimulator as observation
// source, and the concurrent query-vs-ingest hammer (the suite the
// TSan/ASan CI jobs run to prove no torn reads and no use-after-free
// across epoch retirement).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/query_executor.h"
#include "core/reachability_engine.h"
#include "live/epoch_manager.h"
#include "live/live_profile_manager.h"
#include "live/observation_ingestor.h"
#include "traj/fleet_simulator.h"
#include "tests/test_util.h"

namespace strr {
namespace {

using testing_util::GetSharedStack;
using testing_util::MakeTempDir;

/// A second engine over the shared dataset with the full front door on:
/// live ingestion (manual-flush ingestor installed by Build) and the
/// result cache. Built once per binary.
struct LiveStack {
  ReachabilityEngine* engine = nullptr;
};

LiveStack& GetLiveStack() {
  static LiveStack* stack = [] {
    auto* s = new LiveStack();
    auto& base = GetSharedStack();
    EngineOptions opt;
    opt.work_dir = MakeTempDir("live_engine");
    opt.delta_t_seconds = 300;
    opt.live_ingestion = true;
    opt.live_batch_window_ms = 2;
    opt.live_queue_bound = 1 << 14;
    opt.result_cache_entries = 512;
    auto engine =
        ReachabilityEngine::Build(base.dataset.network, *base.dataset.store,
                                  opt);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    static std::unique_ptr<ReachabilityEngine> holder =
        std::move(engine).value();
    s->engine = holder.get();
    return s;
  }();
  return *stack;
}

/// Picks a segment with observed traffic around `tod` (so its profile cell
/// has real min/max to perturb).
SegmentId BusySegment(const SpeedProfile& profile, const RoadNetwork& network,
                      int64_t tod) {
  for (SegmentId seg = 0; seg < network.NumSegments(); ++seg) {
    if (profile.HasObservations(seg, tod)) return seg;
  }
  ADD_FAILURE() << "no segment with observations at tod " << tod;
  return 0;
}

// --- LiveProfileManager -----------------------------------------------------

TEST(LiveProfileManagerTest, PublishCreatesNewVersionOldPinsKeepReading) {
  auto& stack = GetSharedStack();
  const SpeedProfile& base = stack.engine->speed_profile();
  EpochManager epochs;
  LiveProfileManager live(epochs, base, stack.engine->con_index());

  SnapshotRef v0 = live.Acquire();
  EXPECT_EQ(v0.version(), 0u);
  EXPECT_EQ(&v0.profile(), &base) << "version 0 aliases the base profile";

  const int64_t tod = HMS(9);
  SegmentId seg = BusySegment(base, stack.engine->network(), tod);
  double old_min = base.MinSpeed(seg, tod);
  ASSERT_GT(old_min, 0.6);

  // A near-crawl observation: must lower the slot minimum.
  CoalescedUpdate update{seg, tod, 0.6f, 0.6f, 0.6f, 1};
  EXPECT_EQ(live.Publish({&update, 1}), 1u);
  EXPECT_EQ(live.version(), 1u);

  SnapshotRef v1 = live.Acquire();
  EXPECT_EQ(v1.version(), 1u);
  EXPECT_DOUBLE_EQ(v1.profile().MinSpeed(seg, tod),
                   static_cast<double>(0.6f));
  // The pinned old version is immutable: still the pre-publish value.
  EXPECT_DOUBLE_EQ(v0.profile().MinSpeed(seg, tod), old_min);
  EXPECT_DOUBLE_EQ(base.MinSpeed(seg, tod), old_min)
      << "publishing must never mutate the base profile";

  LiveProfileManager::Stats stats = live.stats();
  EXPECT_EQ(stats.published, 1u);
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_GE(stats.slots_invalidated, 1u);
}

TEST(LiveProfileManagerTest, QuietPublishSkipsInvalidation) {
  auto& stack = GetSharedStack();
  const SpeedProfile& base = stack.engine->speed_profile();
  EpochManager epochs;
  LiveProfileManager live(epochs, base, stack.engine->con_index());
  int invalidations = 0;
  live.AddInvalidationListener(
      [&invalidations](int64_t, int64_t) { ++invalidations; });

  // Find a cell with a real (min, max) gap and feed a strictly interior
  // speed: counts and means move, extremes do not.
  const int64_t tod = HMS(9);
  const RoadNetwork& network = stack.engine->network();
  SegmentId seg = kInvalidSegment;
  for (SegmentId s = 0; s < network.NumSegments(); ++s) {
    if (base.HasObservations(s, tod) &&
        base.MaxSpeed(s, tod) - base.MinSpeed(s, tod) > 1.0) {
      seg = s;
      break;
    }
  }
  ASSERT_NE(seg, kInvalidSegment);
  float interior = static_cast<float>(
      (base.MinSpeed(seg, tod) + base.MaxSpeed(seg, tod)) / 2.0);
  double old_mean = base.MeanSpeed(seg, tod);

  CoalescedUpdate update{seg, tod, interior, interior, interior, 1};
  live.Publish({&update, 1});

  SnapshotRef v1 = live.Acquire();
  EXPECT_EQ(v1.version(), 1u) << "quiet publishes still version the profile";
  EXPECT_NE(v1.profile().MeanSpeed(seg, tod), old_mean);
  EXPECT_DOUBLE_EQ(v1.profile().MinSpeed(seg, tod),
                   base.MinSpeed(seg, tod));
  EXPECT_EQ(invalidations, 0) << "no extreme change -> no invalidation";
  LiveProfileManager::Stats stats = live.stats();
  EXPECT_EQ(stats.publishes_quiet, 1u);
  EXPECT_EQ(stats.slots_invalidated, 0u);
}

TEST(LiveProfileManagerTest, CloneSharesUnaffectedConIndexSlots) {
  auto& stack = GetSharedStack();
  const SpeedProfile& base = stack.engine->speed_profile();
  EpochManager epochs;
  LiveProfileManager live(epochs, base, stack.engine->con_index());

  const int64_t warm_tod = HMS(14);
  const int64_t hit_tod = HMS(9);
  SegmentId seg = BusySegment(base, stack.engine->network(), hit_tod);

  SnapshotRef v0 = live.Acquire();
  std::vector<SegmentId> warm_far = v0.con_index().Far(seg, warm_tod);
  std::vector<SegmentId> old_near = v0.con_index().Near(seg, hit_tod);
  size_t materialized_before = v0.con_index().MaterializedTables();
  ASSERT_GE(materialized_before, 2u);

  // Crawl observation in the 9h slot only: the 14h tables must carry over.
  CoalescedUpdate update{seg, hit_tod, 0.6f, 0.6f, 0.6f, 1};
  live.Publish({&update, 1});

  SnapshotRef v1 = live.Acquire();
  EXPECT_GE(v1.con_index().MaterializedTables(), 1u)
      << "unaffected slot tables must be shared, not dropped";
  EXPECT_EQ(v1.con_index().Far(seg, warm_tod), warm_far)
      << "shared slot serves identical lists";
  // The crawl minimum shrinks the Near cone (or leaves it at the floor).
  std::vector<SegmentId> new_near = v1.con_index().Near(seg, hit_tod);
  EXPECT_LE(new_near.size(), old_near.size());
  // The old snapshot still serves its original tables.
  EXPECT_EQ(v0.con_index().Near(seg, hit_tod), old_near);
}

// The soundness proof for partial invalidation, checked empirically: a
// cell-only extreme change (no level-fallback movement) gives the slot an
// overlay instead of a full drop, and every table the new snapshot serves
// — kept from the base bucket or lazily rebuilt — must be bit-identical
// to a from-scratch index over the refreshed profile.
TEST(LiveProfileManagerTest, PartialInvalidationMatchesFullRebuild) {
  auto& stack = GetSharedStack();
  const SpeedProfile& base = stack.engine->speed_profile();
  const RoadNetwork& network = stack.engine->network();
  EpochManager epochs;
  LiveProfileManager live(epochs, base, stack.engine->con_index());

  const int64_t tod = HMS(10);
  // The busy segment with the LARGEST slot minimum: lowering its cell min
  // slightly stays above the level fallback minimum (held by some slower
  // segment), so the change is cell-only.
  SegmentId seg = kInvalidSegment;
  double best_min = 0.0;
  for (SegmentId s = 0; s < network.NumSegments(); ++s) {
    if (!base.HasObservations(s, tod)) continue;
    double m = base.MinSpeed(s, tod);
    if (m > best_min) {
      best_min = m;
      seg = s;
    }
  }
  ASSERT_NE(seg, kInvalidSegment);
  ASSERT_GT(best_min, 1.0);
  float v = static_cast<float>(best_min - 0.01);

  // Warm a spread of tables so the overlay has something to keep.
  SnapshotRef v0 = live.Acquire();
  std::vector<SegmentId> sample = {seg, 0,
                                   static_cast<SegmentId>(
                                       network.NumSegments() / 2),
                                   static_cast<SegmentId>(
                                       network.NumSegments() - 1)};
  for (SegmentId s : sample) {
    v0.con_index().Near(s, tod);
    v0.con_index().Far(s, tod);
  }

  CoalescedUpdate update{seg, tod, v, v, v, 1};
  live.Publish({&update, 1});
  LiveProfileManager::Stats stats = live.stats();
  ASSERT_EQ(stats.slots_partially_invalidated, 1u)
      << "expected a cell-only change (fallback minimum held elsewhere)";
  EXPECT_EQ(stats.slots_invalidated, 0u);

  // Oracle: a from-scratch lazy index over the refreshed profile.
  SnapshotRef v1 = live.Acquire();
  ConIndexOptions con_opt;
  con_opt.delta_t_seconds = stack.engine->delta_t_seconds();
  auto fresh = ConIndex::Create(network, v1.profile(), con_opt);
  ASSERT_TRUE(fresh.ok());
  for (SegmentId s : sample) {
    EXPECT_EQ(v1.con_index().Near(s, tod), (*fresh)->Near(s, tod))
        << "Near mismatch at segment " << s;
    EXPECT_EQ(v1.con_index().Far(s, tod), (*fresh)->Far(s, tod))
        << "Far mismatch at segment " << s;
  }
  // The overlay genuinely kept base tables (the warmed spread minus the
  // reachable neighbourhood of the changed segment).
  EXPECT_GT(v1.con_index().MaterializedTables(), 0u);
  // And the old snapshot still serves pre-update tables.
  EXPECT_EQ(v0.con_index().Near(seg, tod).size(),
            v0.con_index().Near(seg, tod).size());
}

TEST(LiveProfileManagerTest, SupersededSnapshotsAreReclaimedAfterDrain) {
  auto& stack = GetSharedStack();
  EpochManager epochs;
  {
    LiveProfileManager live(epochs, stack.engine->speed_profile(),
                            stack.engine->con_index());
    SegmentId seg =
        BusySegment(stack.engine->speed_profile(), stack.engine->network(),
                    HMS(9));
    for (int i = 0; i < 5; ++i) {
      CoalescedUpdate update{seg, HMS(9), 0.6f, 0.6f, 0.6f, 1};
      live.Publish({&update, 1});
    }
    EXPECT_EQ(live.version(), 5u);
    epochs.TryReclaim();
  }
  // Manager destruction synchronized and reclaimed everything it retired.
  EpochManager::Stats stats = epochs.stats();
  EXPECT_EQ(stats.retired, 5u);
  EXPECT_EQ(stats.reclaimed, 5u);
  EXPECT_EQ(stats.in_limbo, 0u);
}

// --- ObservationIngestor ----------------------------------------------------

TEST(ObservationIngestorTest, CoalescesPerSegmentSlotAndMatchesSequential) {
  auto& stack = GetSharedStack();
  const SpeedProfile& base = stack.engine->speed_profile();
  EpochManager epochs;
  LiveProfileManager live(epochs, base, stack.engine->con_index());
  ObservationIngestorOptions opt;
  opt.manual = true;
  ObservationIngestor ingest(live, opt);

  const int64_t tod = HMS(9);
  SegmentId seg_a = BusySegment(base, stack.engine->network(), tod);
  SegmentId seg_b = seg_a + 1;
  std::vector<SpeedObservation> obs = {
      {seg_a, tod, 3.5}, {seg_a, tod + 10, 1.2}, {seg_a, tod + 20, 7.9},
      {seg_b, tod, 2.2}, {seg_b, tod + 5, 2.4},
  };
  for (const SpeedObservation& o : obs) EXPECT_TRUE(ingest.Offer(o));
  EXPECT_EQ(ingest.stats().queue_depth, 5u);

  EXPECT_EQ(ingest.Flush(), 5u);
  ObservationIngestor::Stats stats = ingest.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_updates, 2u) << "two (segment, slot) groups";
  EXPECT_EQ(stats.published, 5u);
  EXPECT_EQ(live.version(), 1u) << "one publish for the whole batch";

  // Oracle: one-at-a-time ApplyObservation over a private copy. Extremes
  // (all the query path reads) are exact; the mean may differ by float
  // summation order.
  SpeedProfile oracle = base;
  for (const SpeedObservation& o : obs) {
    oracle.ApplyObservation(o.segment, o.time_of_day_sec, o.speed_mps);
  }
  SnapshotRef v1 = live.Acquire();
  for (SegmentId seg : {seg_a, seg_b}) {
    EXPECT_DOUBLE_EQ(v1.profile().MinSpeed(seg, tod),
                     oracle.MinSpeed(seg, tod));
    EXPECT_DOUBLE_EQ(v1.profile().MaxSpeed(seg, tod),
                     oracle.MaxSpeed(seg, tod));
    EXPECT_NEAR(v1.profile().MeanSpeed(seg, tod), oracle.MeanSpeed(seg, tod),
                1e-4);
  }
}

TEST(ObservationIngestorTest, BoundedQueueDropsBeyondCapacity) {
  auto& stack = GetSharedStack();
  EpochManager epochs;
  LiveProfileManager live(epochs, stack.engine->speed_profile(),
                          stack.engine->con_index());
  ObservationIngestorOptions opt;
  opt.manual = true;
  opt.queue_bound = 4;
  ObservationIngestor ingest(live, opt);
  for (int i = 0; i < 6; ++i) {
    ingest.Offer({0, HMS(9), 5.0 + i});
  }
  ObservationIngestor::Stats stats = ingest.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.dropped_full, 2u);
  EXPECT_EQ(stats.max_queue_depth, 4u);
  EXPECT_EQ(ingest.Flush(), 4u);
  EXPECT_EQ(ingest.stats().queue_depth, 0u);
}

TEST(ObservationIngestorTest, RejectsInvalidSpeeds) {
  auto& stack = GetSharedStack();
  EpochManager epochs;
  LiveProfileManager live(epochs, stack.engine->speed_profile(),
                          stack.engine->con_index());
  ObservationIngestorOptions opt;
  opt.manual = true;
  ObservationIngestor ingest(live, opt);
  EXPECT_FALSE(ingest.Offer({0, HMS(9), std::nan("")}));
  EXPECT_FALSE(
      ingest.Offer({0, HMS(9), std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(ingest.Offer({0, HMS(9), 0.1}));  // below min_speed_floor
  ObservationIngestor::Stats stats = ingest.stats();
  EXPECT_EQ(stats.rejected_invalid, 3u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(ingest.Flush(), 0u);
  EXPECT_EQ(live.version(), 0u);
}

TEST(ObservationIngestorTest, NegativeTimeOfDayNormalizes) {
  auto& stack = GetSharedStack();
  const SpeedProfile& base = stack.engine->speed_profile();
  EpochManager epochs;
  LiveProfileManager live(epochs, base, stack.engine->con_index());
  ObservationIngestorOptions opt;
  opt.manual = true;
  ObservationIngestor ingest(live, opt);
  // -1h before midnight == 23h.
  EXPECT_TRUE(ingest.Offer({0, -kSecondsPerHour, 0.55}));
  EXPECT_EQ(ingest.Flush(), 1u);
  SnapshotRef v1 = live.Acquire();
  EXPECT_DOUBLE_EQ(v1.profile().MinSpeed(0, HMS(23)),
                   static_cast<double>(0.55f));
}

TEST(ObservationIngestorTest, BatcherThreadPublishesWithinWindow) {
  auto& stack = GetSharedStack();
  EpochManager epochs;
  LiveProfileManager live(epochs, stack.engine->speed_profile(),
                          stack.engine->con_index());
  ObservationIngestorOptions opt;
  opt.batch_window_ms = 2;
  ObservationIngestor ingest(live, opt);
  for (int i = 0; i < 16; ++i) {
    ingest.Offer({static_cast<SegmentId>(i), HMS(9), 4.0 + i});
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (live.version() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(live.version(), 0u) << "batcher thread should publish on its own";
  ingest.Stop();
  ObservationIngestor::Stats stats = ingest.stats();
  EXPECT_EQ(stats.published, 16u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.mean_staleness_ms, 0.0);
  EXPECT_EQ(stats.queue_depth, 0u) << "Stop flushes the tail";
}

// --- Snapshot-pinned executor ----------------------------------------------

TEST(LiveExecutorTest, ResultsRecordSnapshotVersionAndTrackRefreshes) {
  auto& stack = GetSharedStack();
  ReachabilityEngine& engine = *stack.engine;
  EpochManager epochs;
  LiveProfileManager live(epochs, engine.speed_profile(),
                          engine.con_index());
  QueryExecutor exec(engine.network(), engine.st_index(), live,
                     engine.delta_t_seconds(),
                     QueryExecutorOptions{.num_threads = 1});

  auto plan = engine.planner().PlanSQuery({stack.dataset.center, HMS(9), 600,
                                           0.2});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto before = exec.Execute(*plan);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->stats.snapshot_version, 0u);

  // Crawl all start segments: the 9h slot tables rebuild under the new
  // minimum and the region computed on the new version can only shrink or
  // hold (Near regions are built from minimum speeds).
  for (SegmentId seg : plan->location_starts[0]) {
    CoalescedUpdate update{seg, HMS(9), 0.6f, 0.6f, 0.6f, 1};
    live.Publish({&update, 1});
  }
  auto after = exec.Execute(*plan);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.snapshot_version, live.version());
  EXPECT_EQ(exec.front_door_stats().snapshot_version, live.version());

  // The engine's own snapshots are untouched by this manager's publishes.
  auto static_result = engine.SQueryIndexed({stack.dataset.center, HMS(9),
                                             600, 0.2});
  ASSERT_TRUE(static_result.ok());
  EXPECT_EQ(static_result->segments, before->segments)
      << "publishes must not leak into the engine-built indexes";
}

TEST(LiveExecutorTest, FrontDoorStatsExposePoolCounters) {
  auto& stack = GetSharedStack();
  ReachabilityEngine& engine = *stack.engine;
  auto exec = engine.MakeExecutor({.num_threads = 2});
  std::vector<QueryPlan> plans;
  for (int i = 0; i < 4; ++i) {
    auto plan = engine.planner().PlanSQuery(
        {stack.dataset.center, HMS(9 + i), 600, 0.2});
    ASSERT_TRUE(plan.ok());
    plans.push_back(std::move(plan).value());
  }
  exec->ExecuteBatch(plans);
  // completed_ increments just after a worker fulfills the future the
  // batch joined on; Wait() orders the counter behind the last task.
  exec->thread_pool().Wait();
  QueryExecutor::FrontDoorStats stats = exec->front_door_stats();
  EXPECT_GE(stats.pool_submitted, plans.size());
  EXPECT_EQ(stats.pool_submitted, stats.pool_completed)
      << "batch joined -> nothing in flight";
  EXPECT_EQ(stats.pool_queue_depth, 0u);
}

// The acceptance-criteria hammer: N query threads against M ingest
// threads, no quiescing. Every result must be bit-identical to the result
// every other thread computed at the same snapshot version — one torn
// profile read, half-invalidated table, or recycled snapshot breaks the
// equality (and TSan/ASan flag the root cause in CI).
TEST(LiveExecutorTest, ConcurrentQueryIngestHammerServesConsistentSnapshots) {
  auto& stack = GetSharedStack();
  ReachabilityEngine& engine = *stack.engine;
  EpochManagerOptions epoch_opt;
  epoch_opt.max_retained = 4;
  EpochManager epochs(epoch_opt);
  LiveProfileManager live(epochs, engine.speed_profile(),
                          engine.con_index());
  QueryExecutor exec(engine.network(), engine.st_index(), live,
                     engine.delta_t_seconds(),
                     QueryExecutorOptions{.num_threads = 4,
                                          .result_cache_entries = 256});
  // No manual invalidation wiring: the executor registered its cache with
  // the live manager at construction — this hammer exercises exactly that
  // fan-out (a stale cache serve would surface as a version mismatch).
  ObservationIngestorOptions ingest_opt;
  ingest_opt.batch_window_ms = 1;
  ObservationIngestor ingest(live, ingest_opt);

  auto plan = engine.planner().PlanSQuery({stack.dataset.center, HMS(9), 600,
                                           0.2});
  ASSERT_TRUE(plan.ok());
  const std::vector<SegmentId> starts = plan->location_starts[0];

  constexpr int kQueryThreads = 4;
  constexpr int kIngestThreads = 2;
  constexpr int kQueriesPerThread = 40;

  std::mutex mu;
  std::map<uint64_t, std::vector<SegmentId>> region_by_version;
  std::atomic<bool> stop_ingest{false};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> ingesters;
  for (int t = 0; t < kIngestThreads; ++t) {
    ingesters.emplace_back([&, t] {
      // Slow-heavy source so minima keep dropping and publishes genuinely
      // invalidate the query's 9h slot (plus background noise elsewhere).
      LiveObservationOptions src_opt;
      src_opt.seed = 1000 + t;
      src_opt.slow_traversal_prob = 0.5;
      LiveObservationSource source(engine.network(), src_opt);
      size_t i = 0;
      while (!stop_ingest.load()) {
        SegmentId target = starts[i % starts.size()];
        ingest.Offer(source.NextAt(target, HMS(9) + (i % 600)));
        ingest.Offer(source.Next(HMS(9 + i % 3)));
        ++i;
        std::this_thread::yield();
      }
    });
  }

  // Cache hits make the query loops finish in milliseconds; start them
  // only once ingestion has published, so they really race publishes.
  const auto publish_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (live.version() == 0 &&
         std::chrono::steady_clock::now() < publish_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<std::thread> queriers;
  for (int t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto result = exec.Execute(*plan);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        auto [it, inserted] = region_by_version.try_emplace(
            result->stats.snapshot_version, result->segments);
        if (!inserted && it->second != result->segments) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : queriers) t.join();
  stop_ingest.store(true);
  for (auto& t : ingesters) t.join();
  ingest.Stop();

  EXPECT_EQ(mismatches.load(), 0)
      << "same snapshot version must always produce the same region";
  EXPECT_GT(live.version(), 0u) << "ingestion actually published";
  ASSERT_FALSE(region_by_version.empty());
  for (const auto& [version, region] : region_by_version) {
    EXPECT_LE(version, live.version());
  }

  // Final consistency: the live executor's answer matches a from-scratch
  // executor whose version 0 is the final snapshot's indexes. A miss
  // runs on exactly the final snapshot. A cache hit may be stamped with
  // an older version: Δt-slot invalidation keeps an entry across
  // publishes that left its slots untouched, so it must still equal the
  // final snapshot's region.
  {
    SnapshotRef fin = live.Acquire();
    auto live_result = exec.Execute(*plan);
    ASSERT_TRUE(live_result.ok());
    if (live_result->stats.cache_hit) {
      ASSERT_LE(live_result->stats.snapshot_version, fin.version());
    } else {
      ASSERT_EQ(live_result->stats.snapshot_version, fin.version());
    }
    EpochManager fin_epochs;
    LiveProfileManager fin_live(fin_epochs, fin.profile(), fin.con_index());
    QueryExecutor static_exec(engine.network(), engine.st_index(), fin_live,
                              engine.delta_t_seconds(),
                              QueryExecutorOptions{.num_threads = 1});
    auto static_result = static_exec.Execute(*plan);
    ASSERT_TRUE(static_result.ok());
    EXPECT_EQ(live_result->segments, static_result->segments);
  }
  // Reclamation is lazy (Retire / TryReclaim only): the last publish may
  // have retired its predecessor while a query still held a pin, so sweep
  // once now that every pin is released.
  epochs.TryReclaim();
  EXPECT_EQ(epochs.stats().in_limbo, 0u)
      << "quiet system retains no superseded snapshots";
}

// --- Engine end-to-end -------------------------------------------------------

TEST(LiveEngineTest, OfferObservationRoutesThroughIngestor) {
  ReachabilityEngine& engine = *GetLiveStack().engine;
  ASSERT_NE(engine.live_manager(), nullptr);
  ASSERT_NE(engine.ingestor(), nullptr);
  uint64_t version_before = engine.live_manager()->version();
  double base_min =
      engine.speed_profile().MinSpeed(0, HMS(3));  // quiet 3am slot
  ASSERT_TRUE(engine.OfferObservation({0, HMS(3), 0.9}));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.live_manager()->version() == version_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(engine.live_manager()->version(), version_before);
  // The base profile is untouched; the snapshot carries the refresh.
  EXPECT_DOUBLE_EQ(engine.speed_profile().MinSpeed(0, HMS(3)), base_min);
  SnapshotRef snap = engine.live_manager()->Acquire();
  EXPECT_DOUBLE_EQ(snap.profile().MinSpeed(0, HMS(3)),
                   static_cast<double>(0.9f));
}

TEST(LiveEngineTest, EndToEndSoakWithFleetObservationSource) {
  ReachabilityEngine& engine = *GetLiveStack().engine;
  auto& base = GetSharedStack();
  SQuery probe{base.dataset.center, HMS(9), 600, 0.2};

  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    LiveObservationOptions src_opt;
    src_opt.seed = 77;
    src_opt.slow_traversal_prob = 0.3;
    LiveObservationSource source(engine.network(), src_opt);
    size_t i = 0;
    while (!stop.load()) {
      engine.OfferObservation(source.Next(HMS(9) + (i++ % 3600)));
      std::this_thread::yield();
    }
  });

  std::mutex mu;
  std::map<uint64_t, std::vector<SegmentId>> region_by_version;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto result = engine.SQueryIndexed(probe);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        auto [it, inserted] = region_by_version.try_emplace(
            result->stats.snapshot_version, result->segments);
        if (!inserted && it->second != result->segments) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : queriers) t.join();
  // On a single-core host the feeder may not have won the CPU from the
  // spinning queriers yet; wait on the ingestion condition (bounded) so
  // the assertions test the pipeline, not the scheduler.
  auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (engine.ingestor()->stats().accepted == 0 &&
         std::chrono::steady_clock::now() < wait_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  feeder.join();
  // Likewise the batcher thread: drain deterministically.
  engine.ingestor()->Flush();

  EXPECT_EQ(mismatches.load(), 0);
  ObservationIngestor::Stats stats = engine.ingestor()->stats();
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(engine.live_manager()->version(), 0u);

  // And the refresh is live: a fresh query answers on a published version
  // (possibly older than head if it hit a cache entry whose Δt-slots no
  // later publish invalidated — that entry is still bit-correct).
  auto fresh = engine.SQueryIndexed(probe);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LE(fresh->stats.snapshot_version,
            engine.live_manager()->version());
}

}  // namespace
}  // namespace strr
