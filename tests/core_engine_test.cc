// Integration tests: the full pipeline (dataset -> engine -> queries) and
// the ReachabilityEngine facade behaviour the paper's evaluation relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/dataset.h"
#include "core/reachability_engine.h"
#include "tests/test_util.h"

namespace strr {
namespace {

using testing_util::GetSharedStack;
using testing_util::MakeTempDir;

TEST(DatasetTest, BuildsDeterministically) {
  DatasetOptions opt = TestDatasetOptions();
  auto a = BuildDataset(opt);
  auto b = BuildDataset(opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->network.NumSegments(), b->network.NumSegments());
  EXPECT_EQ(a->store->NumTrajectories(), b->store->NumTrajectories());
  EXPECT_EQ(a->num_trips, b->num_trips);
}

TEST(DatasetTest, ResegmentationApplied) {
  auto dataset = BuildDataset(TestDatasetOptions());
  ASSERT_TRUE(dataset.ok());
  for (const RoadSegment& seg : dataset->network.segments()) {
    EXPECT_LE(seg.length, TestDatasetOptions().reseg.granularity_meters + 1e-6);
  }
}

TEST(DatasetTest, CenterIsInsideNetwork) {
  auto dataset = BuildDataset(TestDatasetOptions());
  ASSERT_TRUE(dataset.ok());
  EXPECT_TRUE(dataset->network.BoundingBox().Contains(dataset->center));
}

TEST(EngineTest, BuildRequiresWorkDir) {
  auto& stack = GetSharedStack();
  EngineOptions opt;  // no work_dir
  EXPECT_TRUE(ReachabilityEngine::Build(stack.dataset.network,
                                        *stack.dataset.store, opt)
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineTest, SQueryProducesNonEmptyRegionAtBusyTime) {
  auto& stack = GetSharedStack();
  SQuery q{stack.dataset.center, HMS(11), 600, 0.1};
  auto result = stack.engine->SQueryIndexed(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->segments.empty());
  EXPECT_GT(result->total_length_m, 0.0);
  EXPECT_GT(result->stats.max_region_segments, 0u);
  EXPECT_GE(result->stats.max_region_segments,
            result->stats.min_region_segments);
  EXPECT_GT(result->stats.wall_ms, 0.0);
}

TEST(EngineTest, RegionIsSortedUnique) {
  auto& stack = GetSharedStack();
  SQuery q{stack.dataset.center, HMS(11), 600, 0.2};
  auto result = stack.engine->SQueryIndexed(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::is_sorted(result->segments.begin(), result->segments.end()));
  EXPECT_EQ(std::adjacent_find(result->segments.begin(),
                               result->segments.end()),
            result->segments.end());
}

TEST(EngineTest, TotalLengthMatchesSegments) {
  auto& stack = GetSharedStack();
  SQuery q{stack.dataset.center, HMS(11), 600, 0.2};
  auto result = stack.engine->SQueryIndexed(q);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_length_m,
              stack.engine->network().LengthOfSegments(result->segments),
              1e-6);
}

TEST(EngineTest, LongerDurationCoversMore) {
  auto& stack = GetSharedStack();
  SQuery q5{stack.dataset.center, HMS(11), 300, 0.1};
  SQuery q20{stack.dataset.center, HMS(11), 1200, 0.1};
  auto r5 = stack.engine->SQueryIndexed(q5);
  auto r20 = stack.engine->SQueryIndexed(q20);
  ASSERT_TRUE(r5.ok());
  ASSERT_TRUE(r20.ok());
  EXPECT_GE(r20->total_length_m, r5->total_length_m);
}

TEST(EngineTest, ExhaustiveDoesMoreIo) {
  auto& stack = GetSharedStack();
  SQuery q{stack.dataset.center, HMS(11), 900, 0.2};
  stack.engine->ResetIoStats(/*drop_cache=*/true);
  auto indexed = stack.engine->SQueryIndexed(q);
  ASSERT_TRUE(indexed.ok());
  stack.engine->ResetIoStats(/*drop_cache=*/true);
  auto exhaustive = stack.engine->SQueryExhaustive(q);
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_LT(indexed->stats.time_lists_read, exhaustive->stats.time_lists_read);
}

TEST(EngineTest, QueryValidation) {
  auto& stack = GetSharedStack();
  SQuery q{stack.dataset.center, HMS(11), 600, 0.0};
  EXPECT_TRUE(stack.engine->SQueryIndexed(q).status().IsInvalidArgument());
  q.prob = 1.5;
  EXPECT_TRUE(stack.engine->SQueryIndexed(q).status().IsInvalidArgument());
  q.prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(stack.engine->SQueryIndexed(q).status().IsInvalidArgument());
  MQuery m;
  m.prob = 0.5;
  EXPECT_TRUE(stack.engine->MQueryIndexed(m).status().IsInvalidArgument());
  m.locations = {stack.dataset.center};
  m.prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(stack.engine->MQueryIndexed(m).status().IsInvalidArgument());
}

TEST(EngineTest, JunkLocationFailsBeforeAnyPostingRead) {
  // A location beyond StIndexOptions::max_locate_distance_m fails the plan
  // with NotFound; an m-query fails as a whole if any location is junk.
  auto& stack = GetSharedStack();
  const XyPoint junk{1.0e9, -1.0e9};
  stack.engine->ResetIoStats();
  SQuery s{junk, HMS(9), 600, 0.2};
  EXPECT_TRUE(stack.engine->SQueryIndexed(s).status().IsNotFound());
  EXPECT_TRUE(stack.engine->SQueryExhaustive(s).status().IsNotFound());
  MQuery m;
  m.locations = {stack.dataset.center, junk};
  m.start_tod = HMS(9);
  EXPECT_TRUE(stack.engine->MQueryIndexed(m).status().IsNotFound());
  EXPECT_TRUE(stack.engine->MQueryRepeatedSQuery(m).status().IsNotFound());
  StorageStats io = stack.engine->st_index().storage_stats();
  EXPECT_EQ(io.cache_hits, 0u);
  EXPECT_EQ(io.cache_misses, 0u);
  EXPECT_EQ(io.disk_page_reads, 0u);
}

TEST(EngineTest, MQueryMatchesRepeatedSQueryApproximately) {
  auto& stack = GetSharedStack();
  Mbr box = stack.engine->network().BoundingBox();
  MQuery m;
  m.locations = {stack.dataset.center,
                 {box.min_x() + box.Width() * 0.3,
                  box.min_y() + box.Height() * 0.3},
                 {box.min_x() + box.Width() * 0.7,
                  box.min_y() + box.Height() * 0.6}};
  m.start_tod = HMS(10);
  m.duration = 600;
  m.prob = 0.1;
  auto mq = stack.engine->MQueryIndexed(m);
  auto rep = stack.engine->MQueryRepeatedSQuery(m);
  ASSERT_TRUE(mq.ok());
  ASSERT_TRUE(rep.ok());
  ASSERT_FALSE(rep->segments.empty());
  // The two strategies agree on the bulk of the region (the elimination
  // rule can trim a few overlap-edge segments).
  std::vector<SegmentId> common;
  std::set_intersection(mq->segments.begin(), mq->segments.end(),
                        rep->segments.begin(), rep->segments.end(),
                        std::back_inserter(common));
  // The strategies differ legitimately: MQMB scores reachability against
  // the union of start trajectories and trims overlap cones with the
  // nearest-start rule, so exact equality is not expected — but the bulk
  // of the region must agree.
  double jaccard =
      static_cast<double>(common.size()) /
      (mq->segments.size() + rep->segments.size() - common.size());
  EXPECT_GT(jaccard, 0.55) << "m-query diverges from repeated s-query";
  // Segments reachable per-start are (almost all) reachable from the union.
  double containment =
      static_cast<double>(common.size()) / rep->segments.size();
  EXPECT_GT(containment, 0.6);
}

TEST(EngineTest, MQueryVerifiesLessThanRepeatedSQuery) {
  auto& stack = GetSharedStack();
  const StIndex& index = stack.engine->st_index();
  const RoadNetwork& net = stack.engine->network();
  // Pick three nearby segments that provably have 11:00 traffic, so both
  // strategies actually verify; heavy overlap -> MQMB saves verification.
  SlotId slot = index.SlotForTime(HMS(11));
  std::vector<XyPoint> locations;
  for (SegmentId s = 0; s < net.NumSegments() && locations.size() < 3; ++s) {
    if (!index.HasTraffic(s, slot)) continue;
    XyPoint mid = net.segment(s).shape.Interpolate(net.segment(s).length / 2);
    if (Distance(mid, stack.dataset.center) < 1200.0) {
      locations.push_back(mid);
    }
  }
  ASSERT_EQ(locations.size(), 3u) << "no busy segments near centre";
  MQuery m;
  m.locations = locations;
  m.start_tod = HMS(11);
  m.duration = 900;
  m.prob = 0.1;
  auto mq = stack.engine->MQueryIndexed(m);
  auto rep = stack.engine->MQueryRepeatedSQuery(m);
  ASSERT_TRUE(mq.ok());
  ASSERT_TRUE(rep.ok());
  ASSERT_GT(rep->stats.segments_verified, 0u);
  EXPECT_LT(mq->stats.segments_verified, rep->stats.segments_verified);
}

TEST(EngineTest, StatsIoDeltaIsScoped) {
  auto& stack = GetSharedStack();
  SQuery q{stack.dataset.center, HMS(11), 600, 0.2};
  auto r1 = stack.engine->SQueryIndexed(q);
  ASSERT_TRUE(r1.ok());
  auto r2 = stack.engine->SQueryIndexed(q);
  ASSERT_TRUE(r2.ok());
  // Second run hits the warm cache: no more disk reads than the first.
  EXPECT_LE(r2->stats.io.disk_page_reads, r1->stats.io.disk_page_reads);
}

TEST(EngineTest, QuietNightQueryYieldsSmallOrEmptyRegion) {
  auto& stack = GetSharedStack();
  SQuery night{stack.dataset.center, HMS(3), 600, 0.5};
  SQuery day{stack.dataset.center, HMS(11), 600, 0.5};
  auto rn = stack.engine->SQueryIndexed(night);
  auto rd = stack.engine->SQueryIndexed(day);
  ASSERT_TRUE(rn.ok());
  ASSERT_TRUE(rd.ok());
  // The test fleet's day shift starts at 06:00; almost nothing moves at 3am,
  // so the high-prob region should be much smaller than at 11:00.
  EXPECT_LT(rn->total_length_m, rd->total_length_m);
}

TEST(EngineTest, FullPipelineFreshBuild) {
  // End-to-end from options to query on a fresh tiny stack (independent of
  // the shared fixture).
  DatasetOptions opt = TestDatasetOptions();
  opt.city.grid_cols = 6;
  opt.city.grid_rows = 5;
  opt.fleet.num_taxis = 15;
  opt.fleet.num_days = 4;
  auto dataset = BuildDataset(opt);
  ASSERT_TRUE(dataset.ok());
  EngineOptions eopt;
  eopt.work_dir = MakeTempDir("fresh_engine");
  eopt.delta_t_seconds = 600;
  auto engine =
      ReachabilityEngine::Build(dataset->network, *dataset->store, eopt);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  SQuery q{dataset->center, HMS(12), 1200, 0.25};
  auto result = (*engine)->SQueryIndexed(q);
  ASSERT_TRUE(result.ok());
  auto es = (*engine)->SQueryExhaustive(q);
  ASSERT_TRUE(es.ok());
  EXPECT_TRUE(std::includes(result->segments.begin(), result->segments.end(),
                            es->segments.begin(), es->segments.end()));
}

}  // namespace
}  // namespace strr
