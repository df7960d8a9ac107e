// Edge-case and failure-injection tests for the query layer: empty
// traffic, degenerate networks, corrupted index files, saturated cones,
// and hand-computable probability fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/reachability_engine.h"
#include "index/con_index.h"
#include "index/st_index.h"
#include "query/bounding_region.h"
#include "query/es_baseline.h"
#include "query/probability.h"
#include "query/trace_back.h"
#include "tests/test_util.h"

namespace strr {
namespace {

using testing_util::MakeChainNetwork;
using testing_util::MakeGridNetwork;
using testing_util::MakeTempDir;

/// Builds a store where taxi `t` (one per day d in `days`) drives the
/// chain 0..n-1 starting at `start_tod`, one segment per 30 seconds.
std::unique_ptr<TrajectoryStore> ChainStore(int num_days,
                                            const std::vector<int>& days,
                                            int chain_length,
                                            int64_t start_tod) {
  auto store = std::make_unique<TrajectoryStore>(num_days);
  TrajectoryId id = 0;
  for (int d : days) {
    MatchedTrajectory t;
    t.id = id++;
    t.taxi = t.id;
    t.day = d;
    for (int i = 0; i < chain_length; ++i) {
      t.samples.push_back({static_cast<SegmentId>(i),
                           MakeTimestamp(d, start_tod + i * 30), 10.0f});
    }
    EXPECT_TRUE(store->Add(std::move(t)).ok());
  }
  return store;
}

class ChainQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = MakeChainNetwork(10, 300.0);  // 10 segments of 300 m
  }

  std::unique_ptr<StIndex> BuildIndex(const TrajectoryStore& store) {
    StIndexOptions opt;
    opt.slot_seconds = 300;
    opt.posting_path = MakeTempDir("chainq") + "/p.bin";
    auto index = StIndex::Build(net_, store, opt);
    EXPECT_TRUE(index.ok());
    return std::move(*index);
  }

  RoadNetwork net_;
};

TEST_F(ChainQueryTest, ProbabilityExactlyMatchesDayFractions) {
  // Taxis on days {0, 2, 4} of 6: every chain segment is reached on
  // exactly 3 of 6 days -> probability 0.5.
  auto store = ChainStore(6, {0, 2, 4}, 10, HMS(9));
  auto index = BuildIndex(*store);
  auto oracle =
      ReachabilityProbability::Create(*index, {0}, HMS(9), 300, 600);
  ASSERT_TRUE(oracle.ok());
  for (SegmentId s = 0; s < 10; ++s) {
    auto p = oracle->Probability(s);
    ASSERT_TRUE(p.ok());
    EXPECT_DOUBLE_EQ(*p, 0.5) << "segment " << s;
  }
  // Unvisited far-away segment: 0.
  EXPECT_DOUBLE_EQ(*oracle->Probability(9), 0.5);
}

TEST_F(ChainQueryTest, ProbabilityRespectsDurationWindow) {
  // The taxi reaches segment i at start+30*i seconds. With L=120s the
  // candidate slots cover [T, T+300) (one Δt slot) — all of the chain's
  // samples land inside the first slot, so quantization includes them.
  // With a 1-minute index the window is honoured much more tightly.
  auto store = ChainStore(4, {0, 1, 2, 3}, 10, HMS(9));
  StIndexOptions opt;
  opt.slot_seconds = 60;
  opt.posting_path = MakeTempDir("chainq60") + "/p.bin";
  auto index = StIndex::Build(net_, *store, opt);
  ASSERT_TRUE(index.ok());
  // L = 120 s: segments entered at offsets 0..120 s qualify (i <= 4).
  auto oracle =
      ReachabilityProbability::Create(**index, {0}, HMS(9), 60, 120);
  ASSERT_TRUE(oracle.ok());
  EXPECT_DOUBLE_EQ(*oracle->Probability(3), 1.0);   // entered at 90 s
  EXPECT_DOUBLE_EQ(*oracle->Probability(8), 0.0);   // entered at 240 s
}

TEST_F(ChainQueryTest, StartWindowExcludesLateCrossers) {
  // Taxi crosses segment 0 at 09:10, outside the [09:00, 09:05) window.
  auto store = ChainStore(3, {0, 1, 2}, 10, HMS(9, 10));
  auto index = BuildIndex(*store);
  auto oracle =
      ReachabilityProbability::Create(*index, {0}, HMS(9), 300, 1200);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(oracle->StartHasNoTraffic());
  EXPECT_DOUBLE_EQ(*oracle->Probability(5), 0.0);
}

TEST_F(ChainQueryTest, MultiStartUnionsTrajectories) {
  // Day 0 taxi starts at segment 0; day 1 taxi "starts" mid-chain at 4
  // (simulate by separate stores merged): here both days drive the whole
  // chain, but query with starts {0} vs {0, 4} must agree since both
  // starts see the same trajectories.
  auto store = ChainStore(2, {0, 1}, 10, HMS(9));
  auto index = BuildIndex(*store);
  auto single = ReachabilityProbability::Create(*index, {0}, HMS(9), 300, 600);
  auto multi =
      ReachabilityProbability::Create(*index, {0, 4}, HMS(9), 300, 600);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(multi.ok());
  for (SegmentId s = 0; s < 10; ++s) {
    EXPECT_DOUBLE_EQ(*single->Probability(s), *multi->Probability(s));
  }
}

// --- Engine edge cases -------------------------------------------------------

TEST(EngineEdgeTest, EmptyTrafficDatasetYieldsEmptyRegions) {
  RoadNetwork net = MakeGridNetwork(4, 4, 400.0);
  TrajectoryStore store(5);  // zero trajectories
  EngineOptions opt;
  opt.work_dir = MakeTempDir("empty_engine");
  auto engine = ReachabilityEngine::Build(net, store, opt);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  SQuery q{{200.0, 200.0}, HMS(12), 600, 0.2};
  auto region = (*engine)->SQueryIndexed(q);
  ASSERT_TRUE(region.ok());
  EXPECT_TRUE(region->segments.empty());
  EXPECT_DOUBLE_EQ(region->total_length_m, 0.0);
  auto es = (*engine)->SQueryExhaustive(q);
  ASSERT_TRUE(es.ok());
  EXPECT_TRUE(es->segments.empty());
}

TEST(EngineEdgeTest, SingleSegmentNetwork) {
  RoadNetwork net = MakeChainNetwork(1, 200.0);
  auto store = std::make_unique<TrajectoryStore>(2);
  MatchedTrajectory t;
  t.id = 0;
  t.day = 0;
  t.samples = {{0, MakeTimestamp(0, HMS(10)), 8.0f}};
  ASSERT_TRUE(store->Add(std::move(t)).ok());
  EngineOptions opt;
  opt.work_dir = MakeTempDir("single_engine");
  auto engine = ReachabilityEngine::Build(net, *store, opt);
  ASSERT_TRUE(engine.ok());
  // Prob=0.5 but the segment is only reached on 1 of 2 days.
  SQuery q{{100.0, 0.0}, HMS(10), 300, 0.5};
  auto region = (*engine)->SQueryIndexed(q);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->segments.size(), 1u);  // 1/2 days = 0.5 >= 0.5
  q.prob = 0.6;
  region = (*engine)->SQueryIndexed(q);
  ASSERT_TRUE(region.ok());
  EXPECT_TRUE(region->segments.empty());
}

TEST(EngineEdgeTest, QueryAtMidnightBoundary) {
  auto& stack = testing_util::GetSharedStack();
  SQuery q{stack.dataset.center, HMS(23, 55), 600, 0.1};
  auto region = stack.engine->SQueryIndexed(q);
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  // The window clamps at midnight (trajectories are per-day); must not
  // crash and region is bounded by whatever traffic exists before 24:00.
}

TEST(EngineEdgeTest, StartTimeOutsideTheDayIsInvalid) {
  // A start time of day lies in [0, 86400): the slots of [T, T+L] are
  // taken within one day, so an out-of-day T would otherwise wrap its
  // start slot but not its end and verify most of the day.
  auto& stack = testing_util::GetSharedStack();
  ReachabilityEngine& engine = *stack.engine;
  const XyPoint at = stack.dataset.center;
  auto run_all = [&](int64_t tod) {
    const SQuery s{at, tod, 600, 0.2};
    const MQuery m{{at, at}, tod, 600, 0.2};
    return std::vector<Status>{
        engine.SQueryIndexed(s).status(),
        engine.SQueryExhaustive(s).status(),
        ExhaustiveSearch(engine.st_index(), engine.speed_profile(), s,
                         engine.delta_t_seconds())
            .status(),
        engine.MQueryIndexed(m).status(),
        engine.MQueryRepeatedSQuery(m).status()};
  };
  for (int64_t tod : {int64_t{-1}, kSecondsPerDay, kSecondsPerDay + HMS(8)}) {
    for (const Status& status : run_all(tod)) {
      EXPECT_TRUE(status.IsInvalidArgument()) << tod << ": "
                                              << status.ToString();
    }
  }
  for (int64_t tod : {int64_t{0}, kSecondsPerDay - 1}) {
    for (const Status& status : run_all(tod)) {
      EXPECT_TRUE(status.ok()) << tod << ": " << status.ToString();
    }
  }
}

TEST(EngineEdgeTest, CorruptPostingFileSurfacesAsError) {
  RoadNetwork net = MakeGridNetwork(3, 3, 400.0);
  auto store = std::make_unique<TrajectoryStore>(2);
  MatchedTrajectory t;
  t.id = 0;
  t.day = 0;
  t.samples = {{0, MakeTimestamp(0, HMS(10)), 8.0f}};
  ASSERT_TRUE(store->Add(std::move(t)).ok());
  StIndexOptions opt;
  opt.slot_seconds = 300;
  std::string dir = MakeTempDir("corrupt_idx");
  opt.posting_path = dir + "/p.bin";
  {
    auto index = StIndex::Build(net, *store, opt);
    ASSERT_TRUE(index.ok());
  }
  // Truncate the posting file to break the directory, then rebuild the
  // reader path via StIndex::Build -> PostingStore::Open (Build rewrites
  // the file, so corrupt AFTER and open via PostingStore directly).
  auto size = std::filesystem::file_size(opt.posting_path);
  std::filesystem::resize_file(opt.posting_path, (size / 4096 / 2) * 4096);
  const PostingGrid grid{static_cast<uint32_t>(net.NumSegments()),
                         static_cast<uint32_t>(SlotsPerDay(opt.slot_seconds))};
  auto reopened = PostingStore::Open(opt.posting_path, grid, 64);
  EXPECT_FALSE(reopened.ok());
}

// --- Bounding-region edge cases ----------------------------------------------

class BoundingEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = MakeGridNetwork(4, 4, 300.0);
    store_ = std::make_unique<TrajectoryStore>(1);
    MatchedTrajectory t;
    t.id = 0;
    t.day = 0;
    t.samples = {{0, MakeTimestamp(0, HMS(10)), 8.0f}};
    ASSERT_TRUE(store_->Add(std::move(t)).ok());
    auto profile = SpeedProfile::Build(net_, *store_);
    ASSERT_TRUE(profile.ok());
    profile_ = std::make_unique<SpeedProfile>(std::move(*profile));
  }

  RoadNetwork net_;
  std::unique_ptr<TrajectoryStore> store_;
  std::unique_ptr<SpeedProfile> profile_;
};

TEST_F(BoundingEdgeTest, SaturatedConeHasNonEmptySeed) {
  // Huge Δt: one hop covers the whole grid -> geometric boundary empty,
  // last-frontier fallback must still give TBS something to start from.
  ConIndexOptions opt;
  opt.delta_t_seconds = 3600;
  auto con = ConIndex::Create(net_, *profile_, opt);
  ASSERT_TRUE(con.ok());
  auto regions = SqmbSearch(net_, **con, 0, HMS(10), 3600);
  ASSERT_TRUE(regions.ok());
  EXPECT_EQ(regions->max_region.size(), net_.NumSegments());
  EXPECT_FALSE(regions->boundary.empty());
}

TEST_F(BoundingEdgeTest, TinyDeltaTGivesTinyCone) {
  ConIndexOptions opt;
  opt.delta_t_seconds = 10;  // 10 seconds: barely past the start segment
  auto con = ConIndex::Create(net_, *profile_, opt);
  ASSERT_TRUE(con.ok());
  auto regions = SqmbSearch(net_, **con, 0, HMS(10), 10);
  ASSERT_TRUE(regions.ok());
  EXPECT_LT(regions->max_region.size(), 4u);
}

TEST_F(BoundingEdgeTest, LocationSegmentSetContainsTwins) {
  // Grid streets are two-way: the set has both directions.
  auto set = LocationSegmentSet(net_, 0);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(net_.segment(set[0]).reverse_id, set[1]);
  // One-way chain: singleton.
  RoadNetwork chain = MakeChainNetwork(2);
  EXPECT_EQ(LocationSegmentSet(chain, 0).size(), 1u);
}

}  // namespace
}  // namespace strr
