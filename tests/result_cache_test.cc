// Tests for the query front door's result cache: PlanKey canonicalization,
// hit/miss/eviction determinism, Δt-slot invalidation correctness
// (post-invalidation results bit-identical to an uncached recompute), and
// a multi-threaded hammer mixing hot repeated queries with cold ones while
// another thread invalidates — no torn RegionResult reads allowed.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/query_executor.h"
#include "core/reachability_engine.h"
#include "core/result_cache.h"
#include "obs/metrics.h"
#include "query/query_plan.h"
#include "tests/test_util.h"

namespace strr {
namespace {

using testing_util::GetSharedStack;

QueryPlan HandPlan(int64_t start_tod, int64_t duration, double prob = 0.2) {
  QueryPlan plan;
  plan.strategy = QueryStrategy::kIndexed;
  plan.locations = {{100.0, 200.0}};
  plan.location_starts = {{7, 8}};
  plan.start_tod = start_tod;
  plan.duration = duration;
  plan.prob = prob;
  return plan;
}

RegionResult FakeResult(std::vector<SegmentId> segments) {
  RegionResult r;
  r.segments = std::move(segments);
  r.total_length_m = 42.0;
  return r;
}

// --- PlanKey ----------------------------------------------------------------

TEST(PlanKeyTest, IdenticalPlansShareOneKey) {
  QueryPlan a = HandPlan(HMS(11), 600);
  QueryPlan b = HandPlan(HMS(11), 600);
  PlanKey ka = MakePlanKey(a);
  PlanKey kb = MakePlanKey(b);
  EXPECT_EQ(ka.canonical, kb.canonical);
  EXPECT_EQ(ka.hash, kb.hash);
}

TEST(PlanKeyTest, EveryQueryFieldChangesTheKey) {
  const QueryPlan base = HandPlan(HMS(11), 600, 0.2);
  const std::string canonical = MakePlanKey(base).canonical;

  QueryPlan v = base;
  v.start_tod = HMS(11, 5);
  EXPECT_NE(MakePlanKey(v).canonical, canonical);

  v = base;
  v.duration = 900;
  EXPECT_NE(MakePlanKey(v).canonical, canonical);

  v = base;
  v.prob = 0.3;
  EXPECT_NE(MakePlanKey(v).canonical, canonical);

  v = base;
  v.strategy = QueryStrategy::kExhaustive;
  EXPECT_NE(MakePlanKey(v).canonical, canonical);

  v = base;
  v.location_starts = {{7}};
  EXPECT_NE(MakePlanKey(v).canonical, canonical);

  v = base;
  v.locations = {{100.0, 201.0}};
  EXPECT_NE(MakePlanKey(v).canonical, canonical);

  v = base;
  v.locations.push_back({300.0, 400.0});
  v.location_starts.push_back({9});
  EXPECT_NE(MakePlanKey(v).canonical, canonical);
}

// --- ResultCache unit behaviour ---------------------------------------------

TEST(ResultCacheTest, HitMissAndLruEvictionAreDeterministic) {
  ResultCache cache(300, {.capacity = 2, .shards = 1});
  PlanKey a = MakePlanKey(HandPlan(HMS(9), 600));
  PlanKey b = MakePlanKey(HandPlan(HMS(10), 600));
  PlanKey c = MakePlanKey(HandPlan(HMS(11), 600));

  EXPECT_FALSE(cache.Lookup(a).has_value());
  cache.Insert(a, FakeResult({1, 2}));
  cache.Insert(b, FakeResult({3}));
  EXPECT_EQ(cache.size(), 2u);

  auto hit = cache.Lookup(a);  // refreshes a to MRU
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->stats.cache_hit);
  EXPECT_EQ(hit->segments, (std::vector<SegmentId>{1, 2}));
  EXPECT_DOUBLE_EQ(hit->total_length_m, 42.0);

  cache.Insert(c, FakeResult({4}));  // over capacity: evicts LRU tail = b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup(b).has_value());
  EXPECT_TRUE(cache.Lookup(a).has_value());
  EXPECT_TRUE(cache.Lookup(c).has_value());

  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);  // lookup(a) + post-eviction a and c
  EXPECT_EQ(stats.misses, 2u);  // the cold lookup(a) + evicted b
}

TEST(ResultCacheTest, SlotInvalidationEvictsOnlyOverlappingWindows) {
  ResultCache cache(300, {.capacity = 16, .shards = 2});
  // 11:00 + 600s covers Δt slots 132..133; 9:00 + 600s covers 108..109.
  PlanKey rush = MakePlanKey(HandPlan(HMS(11), 600));
  PlanKey morning = MakePlanKey(HandPlan(HMS(9), 600));
  cache.Insert(rush, FakeResult({1}));
  cache.Insert(morning, FakeResult({2}));

  // An update covering 11:00-12:00 must evict only the rush-hour entry.
  cache.InvalidateTimeRange(HMS(11), HMS(12));
  EXPECT_FALSE(cache.Lookup(rush).has_value());
  EXPECT_TRUE(cache.Lookup(morning).has_value());
  EXPECT_EQ(cache.stats().invalidated, 1u);

  // Slot-range form: 108 overlaps the morning entry's [108, 109].
  cache.InvalidateSlotRange(108, 108);
  EXPECT_FALSE(cache.Lookup(morning).has_value());
  EXPECT_EQ(cache.stats().invalidated, 2u);

  // Ranges touching nothing evict nothing.
  cache.Insert(rush, FakeResult({1}));
  cache.InvalidateSlotRange(0, 131);
  cache.InvalidateSlotRange(134, 287);
  EXPECT_TRUE(cache.Lookup(rush).has_value());

  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, MidnightWrappingWindowsAreEvictedConservatively) {
  // Execution normalizes time-of-day modulo the day, so a 23:55 + 10min
  // query really reads slot-0 data too; its entry must not survive an
  // early-morning refresh.
  ResultCache cache(300, {.capacity = 16, .shards = 1});
  PlanKey wrap = MakePlanKey(HandPlan(HMS(23, 55), 600));
  cache.Insert(wrap, FakeResult({1}));
  cache.InvalidateTimeRange(HMS(0), HMS(1));  // midnight..00:01
  EXPECT_FALSE(cache.Lookup(wrap).has_value());
}

// --- Doorkeeper (TinyLFU frequency admission) -------------------------------

TEST(FrequencySketchTest, CountsSaturateAndAge) {
  FrequencySketch sketch(1024);
  PlanKey a = MakePlanKey(HandPlan(HMS(9), 600));
  PlanKey b = MakePlanKey(HandPlan(HMS(10), 600));
  for (int i = 0; i < 10; ++i) sketch.Increment(a.hash);
  EXPECT_EQ(sketch.Estimate(a.hash), 10u);  // no other keys: exact
  EXPECT_EQ(sketch.Estimate(b.hash), 0u);

  for (int i = 0; i < 100; ++i) sketch.Increment(b.hash);
  EXPECT_EQ(sketch.Estimate(b.hash), 15u);  // 4-bit saturation

  sketch.Age();
  EXPECT_EQ(sketch.Estimate(a.hash), 5u);
  EXPECT_EQ(sketch.Estimate(b.hash), 7u);
}

TEST(ResultCacheDoorkeeperTest, OneShotScanCannotEvictHotEntries) {
  ResultCache cache(300,
                    {.capacity = 4, .shards = 1, .doorkeeper_counters = 1024});
  std::vector<PlanKey> hot;
  for (int i = 0; i < 4; ++i) {
    hot.push_back(MakePlanKey(HandPlan(HMS(8 + i), 600)));
    cache.Insert(hot.back(), FakeResult({SegmentId(i)}));
  }
  // Hot keys accrue frequency through (hit) lookups.
  for (int round = 0; round < 3; ++round) {
    for (const PlanKey& k : hot) EXPECT_TRUE(cache.Lookup(k).has_value());
  }
  // A one-shot cold scan: every key seen exactly once (miss, then insert).
  for (int i = 0; i < 50; ++i) {
    PlanKey cold = MakePlanKey(HandPlan(HMS(12), 600 + 60 * i));
    EXPECT_FALSE(cache.Lookup(cold).has_value());
    cache.Insert(cold, FakeResult({999}));
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.doorkeeper_rejected, 50u);
  EXPECT_EQ(stats.evictions, 0u);
  for (size_t i = 0; i < hot.size(); ++i) {
    auto kept = cache.Lookup(hot[i]);
    ASSERT_TRUE(kept.has_value()) << "hot entry " << i << " was churned out";
    EXPECT_EQ(kept->segments, std::vector<SegmentId>{SegmentId(i)});
  }
}

TEST(ResultCacheDoorkeeperTest, RepeatedKeyOutfreqsColdVictimAndEnters) {
  ResultCache cache(300,
                    {.capacity = 2, .shards = 1, .doorkeeper_counters = 256});
  PlanKey v1 = MakePlanKey(HandPlan(HMS(8), 600));
  PlanKey v2 = MakePlanKey(HandPlan(HMS(9), 600));
  cache.Insert(v1, FakeResult({1}));  // under capacity: always admitted
  cache.Insert(v2, FakeResult({2}));  // never looked up -> frequency 0

  PlanKey riser = MakePlanKey(HandPlan(HMS(10), 600));
  EXPECT_FALSE(cache.Lookup(riser).has_value());  // freq 1
  cache.Insert(riser, FakeResult({3}));           // 1 > 0: admitted, evicts
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.doorkeeper_rejected, 0u);
  EXPECT_TRUE(cache.Lookup(riser).has_value());
}

TEST(ResultCacheDoorkeeperTest, OffByDefaultKeepsPlainLruChurn) {
  ResultCache cache(300, {.capacity = 2, .shards = 1});
  PlanKey a = MakePlanKey(HandPlan(HMS(8), 600));
  cache.Insert(a, FakeResult({1}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cache.Lookup(a).has_value());
  }
  for (int i = 0; i < 4; ++i) {
    cache.Insert(MakePlanKey(HandPlan(HMS(12), 600 + 60 * i)),
                 FakeResult({9}));
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.doorkeeper_rejected, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_FALSE(cache.Lookup(a).has_value()) << "without the doorkeeper the "
                                               "scan churns the hot entry";
}

// --- Segmented LRU (full TinyLFU) -------------------------------------------

TEST(ResultCacheSegmentedTest, ScanCannotChurnTwiceAccessedEntries) {
  // Probation/protected split: entries with a second access live in the
  // protected segment, so a scan far larger than capacity churns only
  // probation. (Contrast OffByDefaultKeepsPlainLruChurn, where one-shot
  // inserts evict the hot entry.)
  ResultCache cache(300,
                    {.capacity = 8, .shards = 1, .protected_share = 0.5});
  std::vector<PlanKey> hot;
  for (int i = 0; i < 4; ++i) {
    hot.push_back(MakePlanKey(HandPlan(HMS(8), 300 + 60 * i)));
    cache.Insert(hot.back(), FakeResult({SegmentId(i)}));
  }
  // Second access promotes each hot entry out of probation.
  for (const PlanKey& k : hot) EXPECT_TRUE(cache.Lookup(k).has_value());

  for (int i = 0; i < 100; ++i) {
    cache.Insert(MakePlanKey(HandPlan(HMS(13), 300 + 60 * i)),
                 FakeResult({999}));
  }
  for (size_t i = 0; i < hot.size(); ++i) {
    EXPECT_TRUE(cache.Lookup(hot[i]).has_value())
        << "scan evicted protected entry " << i;
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_GE(stats.promotions, 4u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ResultCacheSegmentedTest, ProtectedOverflowDemotesBackToProbation) {
  // Protected capacity 2 of 4: promoting a third hot entry demotes the
  // protected tail, which becomes evictable again.
  ResultCache cache(300,
                    {.capacity = 4, .shards = 1, .protected_share = 0.5});
  std::vector<PlanKey> keys;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(MakePlanKey(HandPlan(HMS(8), 300 + 60 * i)));
    cache.Insert(keys.back(), FakeResult({SegmentId(i)}));
    EXPECT_TRUE(cache.Lookup(keys.back()).has_value());  // promote
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.promotions, 3u);
  EXPECT_GE(stats.demotions, 1u);
  // All three still resident (demotion moves, never drops).
  for (const PlanKey& k : keys) EXPECT_TRUE(cache.Lookup(k).has_value());
}

// --- Per-tenant capacity envelopes ------------------------------------------

TEST(ResultCacheTenantEnvelopeTest, HotTenantFloodCannotEvictColdTenant) {
  // Envelope 0.5 of a 64-entry shard: the hot tenant caps at 32 resident
  // entries and evicts its own LRU once there; the cold tenant's 8
  // entries survive a 1000-insert flood untouched.
  ResultCache cache(300, {.capacity = 64,
                          .shards = 1,
                          .tenant_capacity_share = 0.5});
  const TenantId cold = 1, hot = 2;
  std::vector<PlanKey> cold_keys;
  for (int i = 0; i < 8; ++i) {
    QueryPlan plan = HandPlan(HMS(8), 300 + 60 * i);
    plan.tenant = cold;
    cold_keys.push_back(MakePlanKey(plan));
    cache.Insert(cold_keys.back(), FakeResult({SegmentId(i)}), cold);
  }
  for (int i = 0; i < 1000; ++i) {
    QueryPlan plan = HandPlan(HMS(13), 300 + 60 * i);
    plan.tenant = hot;
    cache.Insert(MakePlanKey(plan), FakeResult({999}), hot);
  }
  EXPECT_LE(cache.TenantSize(hot), 32u);
  EXPECT_EQ(cache.TenantSize(cold), 8u);
  for (size_t i = 0; i < cold_keys.size(); ++i) {
    EXPECT_TRUE(cache.Lookup(cold_keys[i]).has_value())
        << "hot flood evicted cold entry " << i;
  }
  ResultCache::Stats stats = cache.stats();
  EXPECT_GT(stats.tenant_evictions, 0u);
  EXPECT_EQ(stats.evictions, 0u)
      << "the shard never filled; every eviction must be envelope-driven";
}

// --- Executor front door: cached == uncached --------------------------------

TEST(ResultCacheExecutorTest, CachedResultsAreBitIdenticalToUncached) {
  auto& stack = GetSharedStack();
  auto plan = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(11), 600, 0.2});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  auto uncached = stack.engine->MakeExecutor({.num_threads = 1});
  auto reference = uncached->Execute(*plan);
  ASSERT_TRUE(reference.ok());

  QueryExecutorOptions opt;
  opt.num_threads = 2;
  opt.result_cache_entries = 64;
  auto cached = stack.engine->MakeExecutor(opt);
  auto first = cached->Execute(*plan);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->stats.cache_hit);
  auto second = cached->Execute(*plan);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->stats.cache_hit);

  for (const auto* r : {&*first, &*second}) {
    EXPECT_EQ(r->segments, reference->segments);
    EXPECT_DOUBLE_EQ(r->total_length_m, reference->total_length_m);
    EXPECT_EQ(r->stats.segments_verified, reference->stats.segments_verified);
  }
  QueryExecutor::FrontDoorStats stats = cached->front_door_stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_insertions, 1u);
}

TEST(ResultCacheExecutorTest, BatchesServeRepeatsFromCache) {
  auto& stack = GetSharedStack();
  auto plan = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(10), 600, 0.1});
  ASSERT_TRUE(plan.ok());
  std::vector<QueryPlan> plans(5, *plan);

  QueryExecutorOptions opt;
  opt.num_threads = 4;
  opt.result_cache_entries = 64;
  auto executor = stack.engine->MakeExecutor(opt);
  auto warm = executor->ExecuteBatch(plans);
  ASSERT_EQ(warm.size(), plans.size());
  for (const auto& r : warm) ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Hits served by the multi-thread fan-out count as queries exactly as
  // they do on the inline (1-thread) path.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& queries = metrics.GetCounter("strr_queries_total");
  const bool metrics_were_enabled = metrics.enabled();
  metrics.set_enabled(true);
  const uint64_t queries_before = queries.Value();
  auto repeat = executor->ExecuteBatch(plans);
  const uint64_t queries_after = queries.Value();
  metrics.set_enabled(metrics_were_enabled);
  ASSERT_EQ(repeat.size(), plans.size());
  for (size_t i = 0; i < repeat.size(); ++i) {
    ASSERT_TRUE(repeat[i].ok());
    EXPECT_TRUE(repeat[i]->stats.cache_hit) << "plan " << i;
    EXPECT_EQ(repeat[i]->segments, warm[i]->segments);
  }
  EXPECT_GE(executor->front_door_stats().cache_hits, plans.size());
  EXPECT_EQ(queries_after - queries_before, plans.size());
}

// --- Δt-slot invalidation end to end ----------------------------------------

TEST(ResultCacheExecutorTest, SpeedRefreshInvalidatesAffectedSlotsOnly) {
  // Fresh live engine: this test publishes speed refreshes, which must
  // never leak into the shared stack other suites measure against.
  auto& stack = GetSharedStack();
  EngineOptions opt;
  opt.work_dir = testing_util::MakeTempDir("cache_invalidation");
  opt.delta_t_seconds = 300;
  opt.query_threads = 2;
  opt.result_cache_entries = 128;
  opt.live_ingestion = true;
  auto built = ReachabilityEngine::Build(stack.dataset.network,
                                         *stack.dataset.store, opt);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ReachabilityEngine& engine = **built;

  auto rush = engine.planner().PlanSQuery(
      {stack.dataset.center, HMS(11), 600, 0.2});
  auto morning = engine.planner().PlanSQuery(
      {stack.dataset.center, HMS(9), 600, 0.2});
  ASSERT_TRUE(rush.ok());
  ASSERT_TRUE(morning.ok());

  // Prime the cache with both windows.
  auto rush_cold = engine.executor().Execute(*rush);
  auto morning_cold = engine.executor().Execute(*morning);
  ASSERT_TRUE(rush_cold.ok());
  ASSERT_TRUE(morning_cold.ok());
  ASSERT_TRUE(engine.executor().Execute(*rush)->stats.cache_hit);

  // A live observation at 11:05 covers the 11:00-12:00 profile slot: the
  // rush entry must drop, the morning entry must keep serving.
  SegmentId start_seg = rush->location_starts[0][0];
  ASSERT_TRUE(engine.OfferObservation({start_seg, HMS(11, 5), 0.8}));
  engine.ingestor()->Flush();
  EXPECT_GT(engine.executor().front_door_stats().cache_invalidated, 0u);

  auto morning_warm = engine.executor().Execute(*morning);
  ASSERT_TRUE(morning_warm.ok());
  EXPECT_TRUE(morning_warm->stats.cache_hit);
  EXPECT_EQ(morning_warm->segments, morning_cold->segments);

  auto rush_after = engine.executor().Execute(*rush);
  ASSERT_TRUE(rush_after.ok());
  EXPECT_FALSE(rush_after->stats.cache_hit);

  // Post-invalidation result is bit-identical to an uncached recompute
  // over the refreshed profile (same engine, cache-free executor).
  auto uncached = engine.MakeExecutor({.num_threads = 1});
  auto recompute = uncached->Execute(*rush);
  ASSERT_TRUE(recompute.ok());
  EXPECT_EQ(rush_after->segments, recompute->segments);
  EXPECT_DOUBLE_EQ(rush_after->total_length_m, recompute->total_length_m);

  // And the refreshed entry serves the refreshed result.
  auto rush_warm = engine.executor().Execute(*rush);
  ASSERT_TRUE(rush_warm.ok());
  EXPECT_TRUE(rush_warm->stats.cache_hit);
  EXPECT_EQ(rush_warm->segments, recompute->segments);
}

// --- Concurrency hammer -----------------------------------------------------

TEST(ResultCacheExecutorTest, HammerMixedHotColdNeverTearsResults) {
  auto& stack = GetSharedStack();
  Mbr box = stack.engine->network().BoundingBox();
  const QueryPlanner& planner = stack.engine->planner();

  // One hot plan plus a ring of cold ones; a tiny cache forces constant
  // insert/evict churn under the lookups.
  std::vector<QueryPlan> plans;
  auto add = [&](const SQuery& q) {
    auto plan = planner.PlanSQuery(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(plan).value());
  };
  add({stack.dataset.center, HMS(11), 600, 0.2});  // the hot spot
  for (int i = 0; i < 6; ++i) {
    XyPoint p{box.min_x() + box.Width() * (0.3 + 0.06 * i),
              box.min_y() + box.Height() * (0.35 + 0.05 * i)};
    add({p, HMS(9 + (i % 3)), 600 + 300 * (i % 2), 0.1});
  }

  std::vector<std::vector<SegmentId>> reference;
  auto sequential = stack.engine->MakeExecutor({.num_threads = 1});
  for (const QueryPlan& plan : plans) {
    auto r = sequential->Execute(plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference.push_back(r->segments);
  }

  QueryExecutorOptions opt;
  opt.num_threads = 4;
  opt.result_cache_entries = 4;  // far below working set
  opt.result_cache_shards = 2;
  auto executor = stack.engine->MakeExecutor(opt);

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};

  // One thread keeps invalidating the hot window while clients hammer it.
  std::thread invalidator([&] {
    while (!stop.load()) {
      executor->result_cache()->InvalidateTimeRange(HMS(11), HMS(11, 10));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Even threads stay hot; odd threads walk the cold ring.
        size_t i = (t % 2 == 0) ? 0 : 1 + ((t + round) % (plans.size() - 1));
        auto r = executor->Execute(plans[i]);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (r->segments != reference[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true);
  invalidator.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  QueryExecutor::FrontDoorStats stats = executor->front_door_stats();
  EXPECT_GT(stats.cache_hits, 0u);   // the hot spot paid off
  EXPECT_GT(stats.cache_misses, 0u);  // churn really happened
}

}  // namespace
}  // namespace strr
