// Tests for timed network expansion (INE), the A* router and the
// network's radius query.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "roadnet/router.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace strr {
namespace {

using testing_util::ExpandFrom;
using testing_util::ExpandFromMany;
using testing_util::MakeChainNetwork;
using testing_util::MakeGridNetwork;
using testing_util::ShortestPath;
using testing_util::ShortestTravelTimes;

SpeedFn ConstantSpeed(double mps) {
  return [mps](SegmentId) { return mps; };
}

// --- Single-source timed expansion -------------------------------------------

TEST(ExpansionTest, ChainArrivalTimesAreCumulative) {
  // 4 segments of 100m at 10 m/s: completion times 10, 20, 30, 40.
  RoadNetwork net = MakeChainNetwork(4, 100.0);
  auto hits = ExpandFrom(net, 0, 100.0, ConstantSpeed(10.0));
  ASSERT_EQ(hits.size(), 4u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].segment, i);
    EXPECT_DOUBLE_EQ(hits[i].arrival_seconds, 10.0 * (i + 1));
  }
}

TEST(ExpansionTest, BudgetCutsOffExactly) {
  RoadNetwork net = MakeChainNetwork(4, 100.0);
  auto hits = ExpandFrom(net, 0, 25.0, ConstantSpeed(10.0));
  ASSERT_EQ(hits.size(), 2u);  // 10s and 20s fit; 30s does not
  auto exact = ExpandFrom(net, 0, 30.0, ConstantSpeed(10.0));
  EXPECT_EQ(exact.size(), 3u);  // inclusive boundary
}

TEST(ExpansionTest, ZeroBudgetYieldsNothing) {
  RoadNetwork net = MakeChainNetwork(3, 100.0);
  EXPECT_TRUE(ExpandFrom(net, 0, 0.0, ConstantSpeed(10.0)).empty());
}

TEST(ExpansionTest, SourceIncludedWhenTraversable) {
  RoadNetwork net = MakeChainNetwork(3, 100.0);
  auto hits = ExpandFrom(net, 1, 10.0, ConstantSpeed(10.0));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].segment, 1u);
}

TEST(ExpansionTest, NonTraversableSpeedBlocks) {
  RoadNetwork net = MakeChainNetwork(3, 100.0);
  SpeedFn speed = [](SegmentId id) { return id == 1 ? 0.0 : 10.0; };
  auto hits = ExpandFrom(net, 0, 1000.0, speed);
  // Segment 1 blocks the chain: only segment 0 reachable.
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].segment, 0u);
}

TEST(ExpansionTest, MonotoneInBudget) {
  RoadNetwork net = MakeGridNetwork(5, 5, 200.0);
  auto small = ExpandFrom(net, 0, 60.0, ConstantSpeed(8.0));
  auto large = ExpandFrom(net, 0, 120.0, ConstantSpeed(8.0));
  EXPECT_GE(large.size(), small.size());
  std::set<SegmentId> large_set;
  for (const auto& h : large) large_set.insert(h.segment);
  for (const auto& h : small) {
    EXPECT_TRUE(large_set.count(h.segment)) << "budget not monotone";
  }
}

TEST(ExpansionTest, FasterSpeedReachesMore) {
  RoadNetwork net = MakeGridNetwork(6, 6, 200.0);
  auto slow = ExpandFrom(net, 0, 100.0, ConstantSpeed(5.0));
  auto fast = ExpandFrom(net, 0, 100.0, ConstantSpeed(15.0));
  EXPECT_GT(fast.size(), slow.size());
}

TEST(ExpansionTest, ResultsSortedByArrival) {
  RoadNetwork net = MakeGridNetwork(5, 5, 150.0);
  auto hits = ExpandFrom(net, 3, 200.0, ConstantSpeed(10.0));
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].arrival_seconds, hits[i].arrival_seconds);
  }
}

TEST(ExpansionTest, GridDistancesMatchManhattanStructure) {
  // On a uniform grid at constant speed, completion time of any segment
  // equals (number of segments on the best path) * per-segment time.
  RoadNetwork net = MakeGridNetwork(4, 4, 100.0);
  auto hits = ExpandFrom(net, 0, 1000.0, ConstantSpeed(10.0));
  for (const auto& h : hits) {
    double steps = h.arrival_seconds / 10.0;
    EXPECT_NEAR(steps, std::round(steps), 1e-9) << "non-integral path length";
  }
}

// --- Multi-source timed expansion / origins ----------------------------------

TEST(ExpansionTest, MultiSourceOriginAssignsNearest) {
  RoadNetwork net = MakeChainNetwork(10, 100.0);
  std::vector<SegmentId> origin;
  auto hits = ExpandFromMany(net, {0, 9}, 1e9, ConstantSpeed(10.0), &origin);
  EXPECT_EQ(hits.size(), 10u);
  // Chain is one-way, so everything downstream of 0 is owned by 0 except
  // segment 9 itself (unreachable from 0 at lower cost than its own start).
  EXPECT_EQ(origin[0], 0u);
  EXPECT_EQ(origin[9], 9u);
  EXPECT_EQ(origin[5], 0u);
}

TEST(ExpansionTest, MultiSourceOriginOnGrid) {
  RoadNetwork net = MakeGridNetwork(3, 7, 100.0);
  // Two sources at opposite corners; origins must partition the grid and
  // each segment's owner must be the closer source.
  SegmentId s0 = 0;
  SegmentId s1 = static_cast<SegmentId>(net.NumSegments() - 1);
  std::vector<SegmentId> origin;
  ExpandFromMany(net, {s0, s1}, 1e9, ConstantSpeed(10.0), &origin);
  auto from0 = ShortestTravelTimes(net, s0, ConstantSpeed(10.0));
  auto from1 = ShortestTravelTimes(net, s1, ConstantSpeed(10.0));
  for (SegmentId id = 0; id < net.NumSegments(); ++id) {
    ASSERT_NE(origin[id], kInvalidSegment);
    if (from0[id] < from1[id]) {
      EXPECT_EQ(origin[id], s0) << "segment " << id;
    } else if (from1[id] < from0[id]) {
      EXPECT_EQ(origin[id], s1) << "segment " << id;
    }
  }
}

// --- ShortestTravelTimes / ShortestPath --------------------------------------

TEST(ShortestPathTest, PathEndpointsAndContinuity) {
  RoadNetwork net = MakeGridNetwork(5, 5, 100.0);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    SegmentId a = static_cast<SegmentId>(
        rng.UniformInt(0, net.NumSegments() - 1));
    SegmentId b = static_cast<SegmentId>(
        rng.UniformInt(0, net.NumSegments() - 1));
    auto path = ShortestPath(net, a, b, ConstantSpeed(10.0));
    if (path.empty()) continue;
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const auto& out = net.OutgoingOf(path[i]);
      EXPECT_NE(std::find(out.begin(), out.end(), path[i + 1]), out.end())
          << "discontinuous path";
    }
  }
}

TEST(ShortestPathTest, CostMatchesLabel) {
  RoadNetwork net = MakeGridNetwork(4, 6, 120.0);
  auto labels = ShortestTravelTimes(net, 2, ConstantSpeed(10.0));
  auto path = ShortestPath(net, 2, 17, ConstantSpeed(10.0));
  ASSERT_FALSE(path.empty());
  double cost = 0;
  for (SegmentId s : path) cost += net.segment(s).length / 10.0;
  EXPECT_NEAR(cost, labels[17], 1e-9);
}

TEST(ShortestPathTest, UnreachableReturnsEmpty) {
  // One-way chain: cannot go backwards.
  RoadNetwork net = MakeChainNetwork(5, 100.0);
  EXPECT_TRUE(ShortestPath(net, 4, 0, ConstantSpeed(10.0)).empty());
  EXPECT_FALSE(ShortestPath(net, 0, 4, ConstantSpeed(10.0)).empty());
}

TEST(ShortestPathTest, SelfPathIsSingleton) {
  RoadNetwork net = MakeChainNetwork(3, 100.0);
  auto path = ShortestPath(net, 1, 1, ConstantSpeed(10.0));
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 1u);
}

// --- Router (A*) -------------------------------------------------------------

TEST(RouterTest, MatchesDijkstraOnRandomPairs) {
  RoadNetwork net = MakeGridNetwork(6, 6, 150.0);
  SpeedFn speeds = FreeFlowSpeeds(net);
  Router router(net, speeds, FreeFlowSpeed(RoadLevel::kHighway));
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    SegmentId a = static_cast<SegmentId>(
        rng.UniformInt(0, net.NumSegments() - 1));
    SegmentId b = static_cast<SegmentId>(
        rng.UniformInt(0, net.NumSegments() - 1));
    auto astar = router.Route(a, b);
    auto dijkstra = ShortestPath(net, a, b, speeds);
    ASSERT_EQ(astar.empty(), dijkstra.empty());
    if (astar.empty()) continue;
    auto cost = [&](const std::vector<SegmentId>& p) {
      double c = 0;
      for (SegmentId s : p) c += net.segment(s).length / speeds(s);
      return c;
    };
    EXPECT_NEAR(cost(astar), cost(dijkstra), 1e-6);
  }
}

TEST(RouterTest, CachedRouteHitsCache) {
  RoadNetwork net = MakeGridNetwork(4, 4, 100.0);
  Router router(net, ConstantSpeed(10.0), 10.0);
  const auto& p1 = router.RouteCached(0, 10);
  EXPECT_EQ(router.CacheMisses(), 1u);
  const auto& p2 = router.RouteCached(0, 10);
  EXPECT_EQ(router.CacheHits(), 1u);
  EXPECT_EQ(&p1, &p2);  // same stored vector
}

TEST(RouterTest, InvalidIdsReturnEmpty) {
  RoadNetwork net = MakeChainNetwork(2, 100.0);
  Router router(net, ConstantSpeed(10.0), 10.0);
  EXPECT_TRUE(router.Route(0, 999).empty());
  EXPECT_TRUE(router.Route(999, 0).empty());
}

// --- RoadNetwork::SegmentsWithinRadius -------------------------------------

/// Brute-force reference: every segment within `radius` of `p`, sorted by
/// (distance, id).
std::vector<SegmentId> BruteWithinRadius(const RoadNetwork& net,
                                         const XyPoint& p, double radius) {
  std::vector<std::pair<double, SegmentId>> found;
  for (const RoadSegment& seg : net.segments()) {
    double d = seg.shape.Project(p).distance;
    if (d <= radius) found.emplace_back(d, seg.id);
  }
  std::sort(found.begin(), found.end());
  std::vector<SegmentId> out;
  for (const auto& [d, id] : found) out.push_back(id);
  return out;
}

TEST(SegmentsWithinRadiusTest, MatchesBruteForce) {
  RoadNetwork net = MakeGridNetwork(5, 5, 130.0);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    XyPoint p{rng.Uniform(-100, 650), rng.Uniform(-100, 650)};
    double radius = rng.Uniform(20, 300);
    EXPECT_EQ(net.SegmentsWithinRadius(p, radius),
              BruteWithinRadius(net, p, radius))
        << "point (" << p.x << "," << p.y << ") r=" << radius;
  }
}

TEST(SegmentsWithinRadiusTest, TiesOnSharedVerticesAndTwinsOrderById) {
  // Every grid segment is a two-way pair over one shape, and every node is
  // a vertex shared by up to eight segments: points on them tie at equal
  // distance, and ties must order by id.
  RoadNetwork net = MakeGridNetwork(4, 4, 100.0);
  Rng rng(11);
  int ties = 0;
  for (int trial = 0; trial < 200; ++trial) {
    XyPoint p;
    if (trial % 2 == 0) {
      p = net.node(static_cast<NodeId>(rng.UniformInt(0, net.NumNodes() - 1)));
    } else {
      const RoadSegment& seg = net.segment(
          static_cast<SegmentId>(rng.UniformInt(0, net.NumSegments() - 1)));
      p = seg.shape.Interpolate(rng.Uniform(0, seg.length));
    }
    double radius = rng.Uniform(1, 150);
    std::vector<SegmentId> got = net.SegmentsWithinRadius(p, radius);
    EXPECT_EQ(got, BruteWithinRadius(net, p, radius))
        << "point (" << p.x << "," << p.y << ") r=" << radius;
    ASSERT_GE(got.size(), 2u);  // a point on the network lies on a twin pair
    for (size_t i = 1; i < got.size(); ++i) {
      double a = net.segment(got[i - 1]).shape.Project(p).distance;
      double b = net.segment(got[i]).shape.Project(p).distance;
      EXPECT_TRUE(a < b || (a == b && got[i - 1] < got[i]))
          << "hits " << got[i - 1] << ", " << got[i] << " out of order";
      ties += a == b;
    }
  }
  EXPECT_GT(ties, 200);
}

TEST(SegmentsWithinRadiusTest, SortedByDistance) {
  RoadNetwork net = MakeGridNetwork(4, 4, 100.0);
  const XyPoint p{150.0, 150.0};
  auto hits = net.SegmentsWithinRadius(p, 250.0);
  ASSERT_FALSE(hits.empty());
  double prev = -1.0;
  for (SegmentId id : hits) {
    double d = net.segment(id).shape.Project(p).distance;
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(SegmentsWithinRadiusTest, EmptyNetworkAndFarPoint) {
  RoadNetwork empty;
  ASSERT_TRUE(empty.Finalize().ok());
  EXPECT_TRUE(empty.SegmentsWithinRadius({0, 0}, 100.0).empty());
  RoadNetwork net = MakeChainNetwork(2, 100.0);
  EXPECT_TRUE(net.SegmentsWithinRadius({100000.0, 100000.0}, 500.0).empty());
  EXPECT_EQ(net.SegmentsWithinRadius({100000.0, 0.0}, 1e6).size(), 2u);
}

}  // namespace
}  // namespace strr
