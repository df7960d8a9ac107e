// Shared fixtures for the test suite: tiny hand-built networks, a seeded
// small dataset + engine built once per test binary, temp-dir helpers.
#ifndef STRR_TESTS_TEST_UTIL_H_
#define STRR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/reachability_engine.h"
#include "roadnet/road_network.h"

namespace strr {
namespace testing_util {

/// ASSERT-friendly status check.
#define STRR_ASSERT_OK(expr)                                    \
  do {                                                          \
    auto _s = (expr);                                           \
    ASSERT_TRUE(_s.ok()) << "status: " << _s.ToString();        \
  } while (0)

#define STRR_EXPECT_OK(expr)                                    \
  do {                                                          \
    auto _s = (expr);                                           \
    EXPECT_TRUE(_s.ok()) << "status: " << _s.ToString();        \
  } while (0)

/// Builds a rows x cols grid of two-way local streets with `spacing` meter
/// blocks; node (r, c) has id r * cols + c. Finalized.
inline RoadNetwork MakeGridNetwork(int rows, int cols,
                                   double spacing = 400.0,
                                   RoadLevel level = RoadLevel::kLocal) {
  RoadNetwork net;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      net.AddNode({c * spacing, r * spacing});
    }
  }
  auto node = [&](int r, int c) { return static_cast<NodeId>(r * cols + c); };
  auto straight = [&](NodeId a, NodeId b) {
    return Polyline({net.node(a), net.node(b)});
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c + 1 < cols; ++c) {
      auto s = net.AddTwoWaySegment(node(r, c), node(r, c + 1), level,
                                    straight(node(r, c), node(r, c + 1)));
      EXPECT_TRUE(s.ok());
    }
  }
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r + 1 < rows; ++r) {
      auto s = net.AddTwoWaySegment(node(r, c), node(r + 1, c), level,
                                    straight(node(r, c), node(r + 1, c)));
      EXPECT_TRUE(s.ok());
    }
  }
  EXPECT_TRUE(net.Finalize().ok());
  return net;
}

/// A simple one-way chain a->b->c->... of `n` segments, `len` meters each.
inline RoadNetwork MakeChainNetwork(int n, double len = 300.0) {
  RoadNetwork net;
  for (int i = 0; i <= n; ++i) net.AddNode({i * len, 0.0});
  for (int i = 0; i < n; ++i) {
    auto s = net.AddSegment(
        static_cast<NodeId>(i), static_cast<NodeId>(i + 1), RoadLevel::kLocal,
        Polyline({net.node(i), net.node(i + 1)}));
    EXPECT_TRUE(s.ok());
  }
  EXPECT_TRUE(net.Finalize().ok());
  return net;
}

/// Fresh unique temp directory for a test. pid + counter, not rand():
/// unseeded rand() repeats across test binaries, and two binaries racing
/// into the same dir (GetSharedStack's work_dir) corrupt each other's
/// on-disk index under parallel ctest.
inline std::string MakeTempDir(const std::string& tag) {
  static std::atomic<uint64_t> next{0};
  std::string path = ::testing::TempDir() + "strr_" + tag + "_" +
                     std::to_string(static_cast<long>(::getpid())) + "_" +
                     std::to_string(next.fetch_add(1));
  std::filesystem::create_directories(path);
  return path;
}

/// Dataset + engine shared across tests in one binary (expensive to build).
struct SharedStack {
  Dataset dataset;
  std::unique_ptr<ReachabilityEngine> engine;
};

/// Builds (once) and returns the shared small dataset + engine.
inline SharedStack& GetSharedStack() {
  static SharedStack* stack = [] {
    auto* s = new SharedStack();
    auto dataset = BuildDataset(TestDatasetOptions());
    EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
    s->dataset = std::move(dataset).value();
    EngineOptions opt;
    opt.work_dir = MakeTempDir("shared_engine");
    opt.delta_t_seconds = 300;
    opt.cache_pages = 4096;
    auto engine =
        ReachabilityEngine::Build(s->dataset.network, *s->dataset.store, opt);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    s->engine = std::move(engine).value();
    return s;
  }();
  return *stack;
}

/// Two-pointer test whether sorted `a` and `b` share an element: the
/// reference for StartIdSets membership and for MarkDaysIntersecting.
inline bool SortedIntersects(const std::vector<TrajectoryId>& a,
                             const std::vector<TrajectoryId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace testing_util
}  // namespace strr

#endif  // STRR_TESTS_TEST_UTIL_H_
