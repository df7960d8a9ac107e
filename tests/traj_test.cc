// Tests for the trajectory layer: congestion model, store, fleet
// simulator and map matcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "tests/test_util.h"
#include "traj/congestion.h"
#include "util/rng.h"
#include "traj/fleet_simulator.h"
#include "traj/map_matcher.h"
#include "traj/trajectory_store.h"

namespace strr {
namespace {

using testing_util::MakeGridNetwork;

// --- CongestionModel ---------------------------------------------------------

TEST(CongestionTest, RushHourSlowerThanMidnight) {
  CongestionModel model;
  for (RoadLevel level :
       {RoadLevel::kHighway, RoadLevel::kArterial, RoadLevel::kLocal}) {
    EXPECT_LT(model.Multiplier(level, HMS(8)), model.Multiplier(level, HMS(1)))
        << RoadLevelName(level);
    EXPECT_LT(model.Multiplier(level, HMS(18)),
              model.Multiplier(level, HMS(13)));
  }
}

TEST(CongestionTest, LocalRoadsHitHarderThanHighways) {
  CongestionModel model;
  EXPECT_LT(model.Multiplier(RoadLevel::kLocal, HMS(8)),
            model.Multiplier(RoadLevel::kHighway, HMS(8)));
  EXPECT_LT(model.Multiplier(RoadLevel::kArterial, HMS(8)),
            model.Multiplier(RoadLevel::kHighway, HMS(8)));
}

TEST(CongestionTest, MultiplierBounded) {
  CongestionModel model;
  for (int64_t t = 0; t < kSecondsPerDay; t += 600) {
    for (RoadLevel level :
         {RoadLevel::kHighway, RoadLevel::kArterial, RoadLevel::kLocal}) {
      double m = model.Multiplier(level, t);
      EXPECT_GT(m, 0.0);
      EXPECT_LE(m, 1.0);
    }
  }
}

TEST(CongestionTest, NightIsBaselineSpeed) {
  // Off-peak speed equals free-flow minus the permanent urban friction.
  CongestionModel model;
  EXPECT_NEAR(model.Multiplier(RoadLevel::kLocal, HMS(2)),
              1.0 - model.local_base_dip, 0.01);
  EXPECT_NEAR(model.ExpectedSpeed(RoadLevel::kLocal, HMS(2)),
              FreeFlowSpeed(RoadLevel::kLocal) * (1.0 - model.local_base_dip),
              0.3);
}

TEST(CongestionTest, BaseDipOrderedByLevel) {
  CongestionModel model;
  EXPECT_LT(model.highway_base_dip, model.arterial_base_dip);
  EXPECT_LT(model.arterial_base_dip, model.local_base_dip);
}

// --- TrajectoryStore ---------------------------------------------------------

TEST(TrajectoryStoreTest, AddValidatesDay) {
  TrajectoryStore store(3);
  MatchedTrajectory t;
  t.day = 5;
  EXPECT_TRUE(store.Add(t).IsInvalidArgument());
  t.day = -1;
  EXPECT_TRUE(store.Add(t).IsInvalidArgument());
  t.day = 2;
  EXPECT_TRUE(store.Add(t).ok());
  EXPECT_EQ(store.TrajectoriesOnDay(2).size(), 1u);
  EXPECT_EQ(store.NumTrajectories(), 1u);
}

TEST(TrajectoryStoreTest, AddRejectsSamplesBeforeDayZero) {
  // Timestamp counts seconds from midnight of day 0: an earlier sample
  // would land in a negative slot (-1000 s) or, truncated toward zero, be
  // filed under slot 0 (-5 s).
  TrajectoryStore store(3);
  for (Timestamp ts : {Timestamp{-1000}, Timestamp{-5}}) {
    MatchedTrajectory t;
    t.id = 42;
    t.day = 0;
    t.samples = {{0, MakeTimestamp(0, HMS(8)), 10.0f}, {1, ts, 10.0f}};
    Status st = store.Add(t);
    EXPECT_TRUE(st.IsInvalidArgument()) << ts;
    EXPECT_NE(st.ToString().find("trajectory 42"), std::string::npos)
        << st.ToString();
  }
  EXPECT_EQ(store.NumTrajectories(), 0u);
  MatchedTrajectory ok;
  ok.day = 0;
  ok.samples = {{0, 0, 10.0f}};  // midnight of day 0 is fine
  EXPECT_TRUE(store.Add(ok).ok());
}

TEST(TrajectoryStoreTest, ForEachVisitsAll) {
  TrajectoryStore store(2);
  for (int d = 0; d < 2; ++d) {
    for (int i = 0; i < 3; ++i) {
      MatchedTrajectory t;
      t.id = d * 3 + i;
      t.day = d;
      ASSERT_TRUE(store.Add(std::move(t)).ok());
    }
  }
  std::set<TrajectoryId> seen;
  store.ForEach([&](const MatchedTrajectory& t) { seen.insert(t.id); });
  EXPECT_EQ(seen.size(), 6u);
}

TEST(TrajectoryStoreTest, StatsComputation) {
  TrajectoryStore store(2);
  MatchedTrajectory t;
  t.id = 0;
  t.taxi = 4;
  t.day = 0;
  t.samples = {{0, 100, 10.0f}, {1, 160, 20.0f}};
  ASSERT_TRUE(store.Add(std::move(t)).ok());
  DatasetStats stats = store.ComputeStats();
  EXPECT_EQ(stats.num_days, 2);
  EXPECT_EQ(stats.num_taxis, 5u);  // max taxi id + 1
  EXPECT_EQ(stats.num_trajectories, 1u);
  EXPECT_EQ(stats.num_samples, 2u);
  EXPECT_NEAR(stats.mean_speed_mps, 15.0, 1e-6);
}

// --- FleetSimulator ----------------------------------------------------------

class FleetSimulatorTest : public ::testing::Test {
 protected:
  static const RoadNetwork& Network() {
    static RoadNetwork* net = new RoadNetwork(MakeGridNetwork(6, 6, 400.0));
    return *net;
  }

  static FleetOptions SmallFleet() {
    FleetOptions opt;
    opt.num_taxis = 6;
    opt.num_days = 3;
    opt.trips_per_hour = 2.0;
    opt.seed = 5;
    return opt;
  }
};

TEST_F(FleetSimulatorTest, ProducesTrajectories) {
  auto result = SimulateFleet(Network(), SmallFleet());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_trips, 0u);
  EXPECT_GT(result->store->NumTrajectories(), 0u);
  DatasetStats stats = result->store->ComputeStats();
  EXPECT_EQ(stats.num_days, 3);
  EXPECT_LE(stats.num_taxis, 6u);
  EXPECT_GT(stats.num_samples, 100u);
}

TEST_F(FleetSimulatorTest, DeterministicAcrossRuns) {
  auto a = SimulateFleet(Network(), SmallFleet());
  auto b = SimulateFleet(Network(), SmallFleet());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->store->NumTrajectories(), b->store->NumTrajectories());
  ASSERT_EQ(a->num_trips, b->num_trips);
  const auto& ta = a->store->TrajectoriesOnDay(1);
  const auto& tb = b->store->TrajectoriesOnDay(1);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].samples.size(), tb[i].samples.size());
    for (size_t j = 0; j < ta[i].samples.size(); ++j) {
      EXPECT_EQ(ta[i].samples[j].segment, tb[i].samples[j].segment);
      EXPECT_EQ(ta[i].samples[j].timestamp, tb[i].samples[j].timestamp);
    }
  }
}

TEST_F(FleetSimulatorTest, SamplesAreTimeOrderedAndOnDay) {
  auto result = SimulateFleet(Network(), SmallFleet());
  ASSERT_TRUE(result.ok());
  result->store->ForEach([&](const MatchedTrajectory& t) {
    Timestamp prev = MakeTimestamp(t.day, 0);
    for (const MatchedSample& s : t.samples) {
      EXPECT_GE(s.timestamp, prev);
      EXPECT_EQ(DayOf(s.timestamp), t.day);
      EXPECT_GT(s.speed_mps, 0.0f);
      EXPECT_LT(s.segment, Network().NumSegments());
      prev = s.timestamp;
    }
  });
}

TEST_F(FleetSimulatorTest, ConsecutiveSamplesAreAdjacentInNetwork) {
  auto result = SimulateFleet(Network(), SmallFleet());
  ASSERT_TRUE(result.ok());
  size_t checked = 0, adjacent = 0;
  result->store->ForEach([&](const MatchedTrajectory& t) {
    for (size_t i = 1; i < t.samples.size(); ++i) {
      SegmentId a = t.samples[i - 1].segment;
      SegmentId b = t.samples[i].segment;
      ++checked;
      const auto& out = Network().OutgoingOf(a);
      if (std::find(out.begin(), out.end(), b) != out.end() || a == b) {
        ++adjacent;
      }
    }
  });
  // Within a trip the chain is contiguous; breaks happen only between trips
  // (the taxi "teleports" to its next pickup). Most transitions follow
  // adjacency.
  EXPECT_GT(checked, 0u);
  EXPECT_GT(static_cast<double>(adjacent) / checked, 0.8);
}

TEST_F(FleetSimulatorTest, RushHourSpeedsSlower) {
  FleetOptions opt = SmallFleet();
  opt.num_taxis = 20;
  opt.num_days = 4;
  auto result = SimulateFleet(Network(), opt);
  ASSERT_TRUE(result.ok());
  double rush_sum = 0, night_sum = 0;
  int rush_n = 0, night_n = 0;
  result->store->ForEach([&](const MatchedTrajectory& t) {
    for (const MatchedSample& s : t.samples) {
      int64_t tod = TimeOfDay(s.timestamp);
      if (tod >= HMS(7, 30) && tod <= HMS(8, 30)) {
        rush_sum += s.speed_mps;
        ++rush_n;
      } else if (tod >= HMS(12, 30) && tod <= HMS(14, 30)) {
        night_sum += s.speed_mps;
        ++night_n;
      }
    }
  });
  ASSERT_GT(rush_n, 20);
  ASSERT_GT(night_n, 20);
  EXPECT_LT(rush_sum / rush_n, 0.75 * (night_sum / night_n));
}

TEST_F(FleetSimulatorTest, RawGpsEmittedOnRequest) {
  auto result = SimulateFleet(Network(), SmallFleet(), /*raw_days=*/1);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->raw_sample.empty());
  for (const RawTrajectory& raw : result->raw_sample) {
    EXPECT_EQ(raw.day, 0);
    EXPECT_FALSE(raw.points.empty());
    for (size_t i = 1; i < raw.points.size(); ++i) {
      EXPECT_GE(raw.points[i].timestamp, raw.points[i - 1].timestamp);
    }
  }
}

TEST_F(FleetSimulatorTest, RejectsBadOptions) {
  FleetOptions opt = SmallFleet();
  opt.num_days = 0;
  EXPECT_TRUE(SimulateFleet(Network(), opt).status().IsInvalidArgument());
  opt = SmallFleet();
  opt.num_taxis = 0;
  EXPECT_TRUE(SimulateFleet(Network(), opt).status().IsInvalidArgument());
  RoadNetwork unfinalized;
  EXPECT_TRUE(
      SimulateFleet(unfinalized, SmallFleet()).status().IsFailedPrecondition());
}

// --- MapMatcher --------------------------------------------------------------

class MapMatcherTest : public ::testing::Test {
 protected:
  static const RoadNetwork& Network() {
    static RoadNetwork* net = new RoadNetwork(MakeGridNetwork(5, 5, 400.0));
    return *net;
  }
};

TEST_F(MapMatcherTest, CleanGpsRecoversRoute) {
  // Walk along the bottom row: points exactly on the road.
  const RoadNetwork& net = Network();
  RawTrajectory raw;
  raw.id = 1;
  raw.day = 0;
  for (int i = 0; i <= 16; ++i) {
    raw.points.push_back(
        {{i * 100.0, 0.0}, MakeTimestamp(0, HMS(10) + i * 15), 8.0});
  }
  MapMatcher matcher(net);
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok());
  ASSERT_FALSE(matched->samples.empty());
  // Every matched segment must lie on the bottom row (y == 0 for all its
  // shape points).
  for (const MatchedSample& s : matched->samples) {
    for (const XyPoint& p : net.segment(s.segment).shape.points()) {
      EXPECT_NEAR(p.y, 0.0, 1e-9) << "matched off-route segment " << s.segment;
    }
  }
}

TEST_F(MapMatcherTest, NoisyGpsStaysNearRoute) {
  const RoadNetwork& net = Network();
  Rng rng(3);
  RawTrajectory raw;
  raw.id = 2;
  raw.day = 0;
  for (int i = 0; i <= 16; ++i) {
    raw.points.push_back({{i * 100.0 + rng.Gaussian(0, 15.0),
                           rng.Gaussian(0, 15.0)},
                          MakeTimestamp(0, HMS(10) + i * 15),
                          8.0});
  }
  MapMatcher matcher(net);
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok());
  ASSERT_FALSE(matched->samples.empty());
  int on_row = 0;
  for (const MatchedSample& s : matched->samples) {
    bool bottom = true;
    for (const XyPoint& p : net.segment(s.segment).shape.points()) {
      if (std::abs(p.y) > 1.0) bottom = false;
    }
    if (bottom) ++on_row;
  }
  EXPECT_GE(on_row * 1.0 / matched->samples.size(), 0.7);
}

TEST_F(MapMatcherTest, EmptyTrajectory) {
  MapMatcher matcher(Network());
  RawTrajectory raw;
  raw.id = 3;
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok());
  EXPECT_TRUE(matched->samples.empty());
  EXPECT_EQ(matched->id, 3u);
}

TEST_F(MapMatcherTest, PointsFarFromNetworkDropped) {
  MapMatcher matcher(Network());
  RawTrajectory raw;
  raw.id = 4;
  raw.points.push_back({{50000.0, 50000.0}, MakeTimestamp(0, HMS(9)), 5.0});
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok());
  EXPECT_TRUE(matched->samples.empty());
}

TEST_F(MapMatcherTest, ConsecutiveDuplicatesCollapsed) {
  MapMatcher matcher(Network());
  RawTrajectory raw;
  raw.id = 5;
  // Five points on the same segment.
  for (int i = 0; i < 5; ++i) {
    raw.points.push_back(
        {{30.0 + i * 10.0, 0.0}, MakeTimestamp(0, HMS(9) + i * 10), 5.0});
  }
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(matched->samples.size(), 1u);
}

TEST_F(MapMatcherTest, MatchedTimestampsPreserved) {
  MapMatcher matcher(Network());
  RawTrajectory raw;
  raw.id = 6;
  raw.day = 2;
  raw.points.push_back({{10.0, 0.0}, MakeTimestamp(2, HMS(9)), 5.0});
  raw.points.push_back({{410.0, 0.0}, MakeTimestamp(2, HMS(9, 1)), 5.0});
  auto matched = matcher.Match(raw);
  ASSERT_TRUE(matched.ok());
  ASSERT_GE(matched->samples.size(), 1u);
  EXPECT_EQ(matched->samples.front().timestamp, MakeTimestamp(2, HMS(9)));
  EXPECT_EQ(matched->day, 2);
}

// End-to-end: simulator's raw GPS -> matcher -> close to ground truth.
TEST_F(MapMatcherTest, SimulatorRawGpsMatchesGroundTruthSegments) {
  const RoadNetwork& net = Network();
  FleetOptions opt;
  opt.num_taxis = 3;
  opt.num_days = 1;
  opt.trips_per_hour = 1.0;
  opt.gps_noise_std_m = 10.0;
  opt.seed = 9;
  auto result = SimulateFleet(net, opt, /*raw_days=*/1);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->raw_sample.empty());

  MapMatcher matcher(net);
  size_t total_matched = 0, in_truth = 0;
  for (const RawTrajectory& raw : result->raw_sample) {
    // Find the ground-truth trajectory with the same id.
    const MatchedTrajectory* truth = nullptr;
    for (const auto& t : result->store->TrajectoriesOnDay(0)) {
      if (t.id == raw.id) truth = &t;
    }
    ASSERT_NE(truth, nullptr);
    std::set<SegmentId> truth_segs;
    for (const MatchedSample& s : truth->samples) {
      truth_segs.insert(s.segment);
      // Accept the twin too: GPS cannot distinguish directions on offset-
      // free two-way geometry.
      SegmentId twin = net.segment(s.segment).reverse_id;
      if (twin != kInvalidSegment) truth_segs.insert(twin);
    }
    auto matched = matcher.Match(raw);
    ASSERT_TRUE(matched.ok());
    for (const MatchedSample& s : matched->samples) {
      ++total_matched;
      if (truth_segs.count(s.segment)) ++in_truth;
    }
  }
  ASSERT_GT(total_matched, 10u);
  EXPECT_GT(static_cast<double>(in_truth) / total_matched, 0.75);
}

}  // namespace
}  // namespace strr
