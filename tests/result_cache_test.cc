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

TEST(ResultCacheTest, ScanChurnsAHotEntryOutOfThePlainLru) {
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
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_FALSE(cache.Lookup(a).has_value())
      << "recency alone decides: the scan churns the hot entry";
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
