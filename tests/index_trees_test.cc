// Tests for the bulk-loaded R-tree, including parameterized property
// sweeps against brute-force references.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geo/rtree.h"
#include "util/rng.h"

namespace strr {
namespace {

/// An R-tree bulk-loaded with `entries` at fan-out `fanout`.
RTree Load(std::vector<RTree::Entry> entries, size_t fanout = 16) {
  RTree tree(fanout);
  tree.BulkLoad(std::move(entries));
  return tree;
}

/// Point entries: payload i sits at points[i].
std::vector<RTree::Entry> PointEntries(const std::vector<XyPoint>& points) {
  std::vector<RTree::Entry> entries;
  for (uint32_t i = 0; i < points.size(); ++i) {
    entries.push_back({Mbr::FromPoint(points[i]), i});
  }
  return entries;
}

// --- RTree: basic ------------------------------------------------------------

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.Search(Mbr(0, 0, 10, 10)).empty());
  EXPECT_TRUE(tree.Nearest({0, 0}, 3).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RTreeTest, SingleEntry) {
  RTree tree = Load({{Mbr(1, 1, 2, 2), 7}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  auto hits = tree.Search(Mbr(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
  EXPECT_TRUE(tree.Search(Mbr(5, 5, 6, 6)).empty());
}

TEST(RTreeTest, BulkLoadSmall) {
  std::vector<RTree::Entry> entries;
  for (uint32_t i = 0; i < 10; ++i) {
    entries.push_back({Mbr(i, 0, i + 0.5, 1), i});
  }
  RTree tree = Load(entries, 4);
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_TRUE(tree.CheckInvariants());
  auto hits = tree.Search(Mbr(2.2, 0, 4.2, 1));
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint32_t>{2, 3, 4}));
}

TEST(RTreeTest, BulkLoadEmptyAndReload) {
  RTree tree;
  tree.BulkLoad({});
  EXPECT_TRUE(tree.empty());
  tree.BulkLoad({{Mbr(0, 0, 1, 1), 1}});
  EXPECT_EQ(tree.size(), 1u);
  tree.BulkLoad({});
  EXPECT_TRUE(tree.empty());
}

TEST(RTreeTest, NearestOrdering) {
  RTree tree = Load(PointEntries({{0, 0}, {10, 0}, {20, 0}}));
  auto nearest = tree.Nearest({11, 0}, 2);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(nearest[0], 1u);
  EXPECT_EQ(nearest[1], 2u);
}

TEST(RTreeTest, NearestKLargerThanSize) {
  RTree tree = Load(PointEntries({{0, 0}}));
  EXPECT_EQ(tree.Nearest({5, 5}, 10).size(), 1u);
}

TEST(RTreeTest, SearchVisitEarlyStop) {
  std::vector<RTree::Entry> entries;
  for (uint32_t i = 0; i < 20; ++i) entries.push_back({Mbr(i, 0, i + 1, 1), i});
  RTree tree = Load(entries, 4);
  int visits = 0;
  tree.SearchVisit(Mbr(0, 0, 30, 1), [&](const RTree::Entry&) {
    ++visits;
    return visits < 5;
  });
  EXPECT_EQ(visits, 5);
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  std::vector<XyPoint> points;
  for (uint32_t i = 0; i < 1000; ++i) {
    points.push_back(
        {static_cast<double>(i % 37), static_cast<double>(i % 53)});
  }
  RTree tree = Load(PointEntries(points), 8);
  EXPECT_TRUE(tree.CheckInvariants());
  // 1000 entries at fan-out 8: 125 leaves, then 16, 2 and the root.
  EXPECT_EQ(tree.Height(), 4);
}

// --- RTree: parameterized property sweep -------------------------------------

struct RTreeParam {
  size_t fanout;
  size_t count;
};

class RTreePropertyTest : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(RTreePropertyTest, SearchMatchesBruteForce) {
  const RTreeParam param = GetParam();
  Rng rng(1000 + param.count * 7 + param.fanout);
  std::vector<RTree::Entry> entries;
  for (uint32_t i = 0; i < param.count; ++i) {
    double x = rng.Uniform(0, 1000), y = rng.Uniform(0, 1000);
    entries.push_back(
        {Mbr(x, y, x + rng.Uniform(0, 30), y + rng.Uniform(0, 30)), i});
  }
  RTree tree = Load(entries, param.fanout);
  ASSERT_EQ(tree.size(), param.count);
  ASSERT_TRUE(tree.CheckInvariants());

  for (int trial = 0; trial < 20; ++trial) {
    double x = rng.Uniform(-50, 1000), y = rng.Uniform(-50, 1000);
    Mbr query(x, y, x + rng.Uniform(1, 200), y + rng.Uniform(1, 200));
    std::set<uint32_t> expected;
    for (const auto& e : entries) {
      if (e.box.Intersects(query)) expected.insert(e.value);
    }
    auto got_vec = tree.Search(query);
    std::set<uint32_t> got(got_vec.begin(), got_vec.end());
    ASSERT_EQ(got_vec.size(), got.size()) << "duplicates returned";
    EXPECT_EQ(got, expected);
  }
}

TEST_P(RTreePropertyTest, NearestMatchesBruteForce) {
  const RTreeParam param = GetParam();
  Rng rng(2000 + param.count * 3 + param.fanout);
  std::vector<XyPoint> points;
  for (uint32_t i = 0; i < param.count; ++i) {
    points.push_back({rng.Uniform(0, 500), rng.Uniform(0, 500)});
  }
  std::vector<RTree::Entry> entries = PointEntries(points);
  RTree tree = Load(entries, param.fanout);
  for (int trial = 0; trial < 10; ++trial) {
    XyPoint p{rng.Uniform(0, 500), rng.Uniform(0, 500)};
    std::vector<double> best;
    for (const auto& e : entries) best.push_back(e.box.MinDistance(p));
    std::sort(best.begin(), best.end());
    // The k results are the k smallest box distances, nearest first.
    for (size_t k : {size_t{1}, size_t{8}}) {
      auto got = tree.Nearest(p, k);
      ASSERT_EQ(got.size(), std::min(k, param.count));
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(entries[got[i]].box.MinDistance(p), best[i], 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreePropertyTest,
    ::testing::Values(RTreeParam{4, 10}, RTreeParam{4, 200}, RTreeParam{8, 500},
                      RTreeParam{16, 1000}, RTreeParam{32, 2000}),
    [](const ::testing::TestParamInfo<RTreeParam>& info) {
      return "BulkF" + std::to_string(info.param.fanout) + "N" +
             std::to_string(info.param.count);
    });

}  // namespace
}  // namespace strr
