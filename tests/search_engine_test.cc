// src/search/ tests: the unified frontier-search core.
//
//  * ExpansionContext pooling (epoch-stamped reuse, pool hit accounting);
//  * the canonical tie rule of timed (Dijkstra) expansion, checked against
//    an independent oracle on randomized cities and a tie-heavy grid;
//  * Con-Index parallel-build determinism (concurrent builders produce
//    exactly the sequential lists);
//  * ingest-driven prewarm (LiveProfileManager rebuilds partially
//    invalidated tables in the background, bit-identical to lazy builds);
//  * a concurrent query-x-ingest hammer with context-pool reuse (the
//    TSan/ASan CI suite for the subsystem).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include "core/query_executor.h"
#include "core/reachability_engine.h"
#include "index/con_index.h"
#include "live/epoch_manager.h"
#include "live/live_profile_manager.h"
#include "query/bounding_region.h"
#include "roadnet/city_generator.h"
#include "roadnet/expansion.h"
#include "search/expansion_context.h"
#include "search/frontier_engine.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace strr {
namespace {

using testing_util::GetSharedStack;
using testing_util::MakeGridNetwork;

/// Deterministic, thread-safe pseudo-random speed oracle (4..29 m/s).
SpeedFn HashSpeeds(uint64_t salt) {
  return [salt](SegmentId id) {
    uint64_t h = (static_cast<uint64_t>(id) + salt) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
    return 4.0 + static_cast<double>(h % 1000) / 40.0;
  };
}

SpeedFn ConstantSpeed(double v) {
  return [v](SegmentId) { return v; };
}

/// Checks the canonical tie rule (see search/frontier_engine.h) against
/// an oracle built from the engine's own labels: visiting segments in
/// label order, a segment's origin is the smallest origin among its
/// optimal predecessors (or itself, when it is a source whose own
/// traversal time is optimal) and its parent is the smallest optimal
/// predecessor. Labels are checked against the minimum over one
/// single-source run per source.
void ExpectCanonicalTimed(const RoadNetwork& net,
                          const std::vector<SegmentId>& sources,
                          double budget, const SpeedFn& speed) {
  FrontierEngine engine(net);
  FrontierEngine::TimedRequest request;
  request.sources = sources;
  request.budget = budget;
  request.track_origin = true;
  request.track_parent = true;
  ExpansionContext ctx;
  engine.RunTimed(ctx, request, speed);

  const size_t n = net.NumSegments();
  std::vector<double> best(n, kUnreachedLabel);
  for (SegmentId src : sources) {
    FrontierEngine::TimedRequest single;
    single.sources = std::span<const SegmentId>(&src, 1);
    single.budget = budget;
    ExpansionContext one;
    engine.RunTimed(one, single, speed);
    for (SegmentId s : one.reached()) best[s] = std::min(best[s], one.Label(s));
  }
  std::vector<std::vector<SegmentId>> preds(n);
  for (SegmentId p = 0; p < n; ++p) {
    for (SegmentId s : net.OutgoingOf(p)) preds[s].push_back(p);
  }
  std::vector<SegmentId> order;
  for (SegmentId s = 0; s < n; ++s) {
    ASSERT_EQ(ctx.Label(s), best[s]) << "label differs at " << s;
    if (best[s] < kUnreachedLabel) order.push_back(s);
  }
  ASSERT_FALSE(order.empty());
  std::sort(order.begin(), order.end(), [&](SegmentId a, SegmentId b) {
    return best[a] < best[b];
  });
  std::vector<SegmentId> origin(n, kInvalidSegment);
  for (SegmentId s : order) {
    SegmentId want_origin = kInvalidSegment;
    SegmentId want_parent = kInvalidSegment;
    for (SegmentId src : sources) {
      if (src == s && net.segment(s).TravelTimeSeconds(speed(s)) == best[s]) {
        want_origin = s;
      }
    }
    for (SegmentId p : preds[s]) {
      if (best[p] == kUnreachedLabel) continue;
      if (best[p] + net.segment(s).TravelTimeSeconds(speed(s)) != best[s]) {
        continue;
      }
      want_origin = std::min(want_origin, origin[p]);
      want_parent = std::min(want_parent, p);
    }
    origin[s] = want_origin;
    ASSERT_EQ(ctx.Origin(s), want_origin) << "origin differs at " << s;
    ASSERT_EQ(ctx.Parent(s), want_parent) << "parent differs at " << s;
  }
}

// --- ExpansionContext / pool ------------------------------------------------

TEST(ExpansionContextTest, BeginResetsStateCheaply) {
  ExpansionContext ctx;
  ctx.Begin(16);
  EXPECT_FALSE(ctx.Seen(3));
  EXPECT_EQ(ctx.Label(3), kUnreachedLabel);
  ctx.SetLabel(3, 12.5);
  ctx.SetOrigin(3, 7);
  ctx.SetMark(3, 42);
  EXPECT_TRUE(ctx.Seen(3));
  EXPECT_EQ(ctx.Label(3), 12.5);
  EXPECT_EQ(ctx.Origin(3), 7u);
  EXPECT_EQ(ctx.Mark(3), 42);
  EXPECT_EQ(ctx.reached().size(), 1u);

  ctx.Begin(16);  // same size: stamp bump, no reallocation
  EXPECT_FALSE(ctx.Seen(3));
  EXPECT_EQ(ctx.Label(3), kUnreachedLabel);
  EXPECT_EQ(ctx.Origin(3), kInvalidSegment);
  EXPECT_EQ(ctx.Mark(3), -1);
  EXPECT_TRUE(ctx.reached().empty());

  ctx.Begin(8);  // shrink is a fresh start too
  EXPECT_FALSE(ctx.Seen(3));
}

TEST(ExpansionContextTest, HeapPopsInNondecreasingOrder) {
  ExpansionContext ctx;
  ctx.Begin(64);
  uint64_t state = 99;
  for (int i = 0; i < 200; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    ctx.HeapPush(static_cast<double>(state % 1000), SegmentId(i % 64));
  }
  double prev = -1.0, t;
  SegmentId s;
  int count = 0;
  while (ctx.HeapPop(&t, &s)) {
    EXPECT_GE(t, prev);
    prev = t;
    ++count;
  }
  EXPECT_EQ(count, 200);
}

TEST(ExpansionContextPoolTest, LeasesRecycleContexts) {
  ExpansionContextPool pool(4);
  ExpansionContext* first = nullptr;
  {
    auto lease = pool.Acquire();
    lease->Begin(32);
    first = lease.get();
  }
  {
    auto lease = pool.Acquire();
    EXPECT_EQ(lease.get(), first) << "pool should hand the context back";
  }
  ExpansionContextPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.pooled, 1u);
}

TEST(ExpansionContextPoolTest, BoundedPoolDiscardsOverflow) {
  ExpansionContextPool pool(1);
  {
    auto a = pool.Acquire();
    auto b = pool.Acquire();
  }  // both released; only one retained
  ExpansionContextPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.pooled, 1u);
  EXPECT_EQ(stats.discarded, 1u);
}

// --- Timed expansion: canonical tie rule -----------------------------------

TEST(FrontierEngineTest, TimedTieRuleCanonicalOnRandomCities) {
  for (uint64_t seed : {3ull, 19ull, 71ull}) {
    CityOptions copt;
    copt.grid_cols = 9;
    copt.grid_rows = 7;
    copt.seed = seed;
    auto city = GenerateCity(copt);
    ASSERT_TRUE(city.ok());
    const RoadNetwork& net = city->network;
    std::vector<SegmentId> sources{
        0, SegmentId(net.NumSegments() / 3), SegmentId(net.NumSegments() / 2),
        SegmentId(net.NumSegments() - 1)};
    ExpectCanonicalTimed(net, sources, 700.0, HashSpeeds(seed));
  }
}

TEST(FrontierEngineTest, TimedTieRuleCanonicalUnderHeavyTies) {
  // Uniform grid + constant speed: nearly every segment has several
  // equal-cost shortest paths and several equidistant sources.
  RoadNetwork net = MakeGridNetwork(9, 9, 250.0);
  std::vector<SegmentId> sources{0, SegmentId(net.NumSegments() / 2),
                                 SegmentId(net.NumSegments() - 2)};
  ExpectCanonicalTimed(net, sources, 500.0, ConstantSpeed(10.0));
}

TEST(FrontierEngineTest, WrapperFunctionsMatchEngineResults) {
  RoadNetwork net = MakeGridNetwork(5, 5, 300.0);
  SpeedFn speeds = HashSpeeds(5);
  auto hits = ExpandFrom(net, 2, 400.0, speeds);
  ASSERT_FALSE(hits.empty());
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].arrival_seconds, hits[i].arrival_seconds);
  }
  // Reached set must match an unbounded label computation truncated at
  // the budget.
  auto labels = ShortestTravelTimes(net, 2, speeds);
  size_t in_budget = 0;
  for (double l : labels) in_budget += (l <= 400.0) ? 1 : 0;
  EXPECT_EQ(hits.size(), in_budget);
}

// --- Con-Index: parallel builds are deterministic ---------------------------

TEST(ConIndexBuildTest, ConcurrentBuildersProduceSequentialLists) {
  auto& stack = GetSharedStack();
  const RoadNetwork& net = stack.engine->network();
  const SpeedProfile& profile = stack.engine->speed_profile();
  ConIndexOptions copt;
  copt.delta_t_seconds = 300;

  auto parallel_index = ConIndex::Create(net, profile, copt);
  auto sequential_index = ConIndex::Create(net, profile, copt);
  ASSERT_TRUE(parallel_index.ok() && sequential_index.ok());
  const SlotId slot = 10;
  const int64_t tod = static_cast<int64_t>(slot) * profile.slot_seconds();

  // Parallel: 4 racing builders over interleaved segment sets (deliberate
  // overlap at the chunk edges so first-writer-wins races actually occur).
  {
    ThreadPool build_pool(4);
    const size_t n = net.NumSegments();
    for (int worker = 0; worker < 4; ++worker) {
      build_pool.Submit([&, worker] {
        std::vector<SegmentId> mine;
        for (SegmentId s = 0; s < n; ++s) {
          if (s % 3 == static_cast<SegmentId>(worker % 3)) mine.push_back(s);
        }
        (**parallel_index).PrewarmSlot(slot, mine);
      });
    }
    build_pool.Wait();
  }
  // Every table must exist (worker coverage) and match the lazily,
  // sequentially materialized reference bit for bit.
  for (SegmentId s = 0; s < net.NumSegments(); ++s) {
    ASSERT_EQ((**parallel_index).Far(s, tod), (**sequential_index).Far(s, tod))
        << "Far list differs at segment " << s;
    ASSERT_EQ((**parallel_index).Near(s, tod),
              (**sequential_index).Near(s, tod))
        << "Near list differs at segment " << s;
  }
  EXPECT_GE((**parallel_index).MaterializedTables(), net.NumSegments());
}

// --- Ingest-driven prewarm --------------------------------------------------

TEST(LivePrewarmTest, PrewarmRebuildsExactlyTheInvalidatedTables) {
  auto& stack = GetSharedStack();
  const RoadNetwork& net = stack.engine->network();
  const SpeedProfile& profile = stack.engine->speed_profile();
  ConIndexOptions copt;
  copt.delta_t_seconds = 300;
  auto base_index = ConIndex::Create(net, profile, copt);
  ASSERT_TRUE(base_index.ok());

  // The busy segment with the LARGEST slot minimum: lowering its cell min
  // slightly stays above the level fallback minimum (held by some slower
  // segment), so the change is cell-only — a *partial* invalidation, the
  // case prewarm consumes.
  const int64_t tod = HMS(11);
  SegmentId seg = kInvalidSegment;
  double best_min = 0.0;
  for (SegmentId s = 0; s < net.NumSegments(); ++s) {
    if (!profile.HasObservations(s, tod)) continue;
    double m = profile.MinSpeed(s, tod);
    if (m > best_min) {
      best_min = m;
      seg = s;
    }
  }
  ASSERT_NE(seg, kInvalidSegment);
  ASSERT_GT(best_min, 1.0);
  // Materialize some base tables so the partial invalidation has
  // something to knock out (seg's own table is always affected).
  (**base_index).Far(seg, tod);
  (**base_index).Near(seg, tod);
  for (SegmentId s = 0; s < std::min<SegmentId>(32, net.NumSegments()); ++s) {
    (**base_index).Far(s, tod);
  }

  EpochManager epochs;
  LiveProfileOptions lopt;
  lopt.prewarm = true;
  lopt.prewarm_threads = 2;
  LiveProfileManager live(epochs, profile, **base_index, lopt);

  float v = static_cast<float>(best_min - 0.01);
  CoalescedUpdate update{seg, tod, v, v, v, 1};
  uint64_t version = live.Publish({&update, 1});
  EXPECT_EQ(version, 1u);

  live.WaitForPrewarm();
  LiveProfileManager::Stats stats = live.stats();
  ASSERT_GT(stats.prewarm_tasks, 0u)
      << "partial invalidation scheduled no prewarm";
  EXPECT_GT(stats.prewarm_tables_built, 0u);

  // The prewarmed tables must be bit-identical to a cold lazy build over
  // the same (published) profile.
  {
    SnapshotRef ref = live.Acquire();
    auto oracle = ConIndex::Create(net, ref.profile(), copt);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(ref.con_index().Far(seg, tod), (**oracle).Far(seg, tod));
    EXPECT_EQ(ref.con_index().Near(seg, tod), (**oracle).Near(seg, tod));
  }

  // A second partial invalidation of the same slot: the new clone's
  // fresh bucket discards the tables the first generation built (the
  // prewarmed ones included), so the work list must cover them again —
  // not just the newly changed segment.
  const uint64_t built_after_first = stats.prewarm_tables_built;
  float v2 = static_cast<float>(best_min - 0.02);
  CoalescedUpdate update2{seg, tod, v2, v2, v2, 1};
  EXPECT_EQ(live.Publish({&update2, 1}), 2u);
  live.WaitForPrewarm();
  LiveProfileManager::Stats stats2 = live.stats();
  EXPECT_EQ(stats2.slots_partially_invalidated, 2u);
  EXPECT_GT(stats2.prewarm_tables_built, built_after_first)
      << "repeated partial invalidation must re-prewarm the previous "
         "generation's own tables";
  SnapshotRef ref2 = live.Acquire();
  auto oracle2 = ConIndex::Create(net, ref2.profile(), copt);
  ASSERT_TRUE(oracle2.ok());
  EXPECT_EQ(ref2.con_index().Far(seg, tod), (**oracle2).Far(seg, tod));
  EXPECT_EQ(ref2.con_index().Near(seg, tod), (**oracle2).Near(seg, tod));
}

// --- Concurrent query x ingest ---------------------------------------------

TEST(SearchConcurrencyTest, QueryIngestHammer) {
  auto& base = GetSharedStack();
  EngineOptions opt;
  opt.work_dir = testing_util::MakeTempDir("search_hammer");
  opt.delta_t_seconds = 300;
  opt.query_threads = 2;
  opt.live_ingestion = true;
  opt.live_batch_window_ms = 2;
  opt.live_prewarm = true;
  opt.result_cache_entries = 128;
  auto engine_or =
      ReachabilityEngine::Build(base.dataset.network, *base.dataset.store, opt);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  ReachabilityEngine& engine = **engine_or;

  SQuery q{base.dataset.center, HMS(11), 900, 0.2};
  auto plan = engine.planner().PlanSQuery(q);
  ASSERT_TRUE(plan.ok());
  auto reference = engine.executor().Execute(*plan);
  ASSERT_TRUE(reference.ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::thread feeder([&] {
    uint64_t i = 0;
    while (!stop.load()) {
      SegmentId seg = static_cast<SegmentId>(
          i % base.dataset.network.NumSegments());
      engine.OfferObservation({seg, HMS(11, static_cast<int>(i % 60)),
                               3.0 + static_cast<double>(i % 14)});
      ++i;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> queriers;
  for (int t = 0; t < 3; ++t) {
    queriers.emplace_back([&] {
      for (int i = 0; i < 30 && ok.load(); ++i) {
        auto result = engine.executor().Execute(*plan);
        if (!result.ok() || result->segments.empty()) ok.store(false);
      }
    });
  }
  for (auto& t : queriers) t.join();
  stop.store(true);
  feeder.join();
  EXPECT_TRUE(ok.load());

  // Expansion contexts must be recycled, not reallocated per query.
  QueryExecutor::FrontDoorStats fds = engine.executor().front_door_stats();
  EXPECT_GT(fds.ctx_pool_reuses, 0u);

  // Same version => bit-identical region (determinism under live load).
  auto again = engine.executor().Execute(*plan);
  ASSERT_TRUE(again.ok());
  if (again->stats.snapshot_version == reference->stats.snapshot_version) {
    EXPECT_EQ(again->segments, reference->segments);
  }
}

}  // namespace
}  // namespace strr
