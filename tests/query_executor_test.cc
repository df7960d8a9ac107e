// Tests for the plan -> execute pipeline: QueryPlanner validation and
// resolution, QueryExecutor batches (parallel == sequential, per-plan
// errors), parallel m-query legs, and a multi-threaded hammer over one
// shared engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "core/query_executor.h"
#include "core/reachability_engine.h"
#include "query/query_plan.h"
#include "tests/test_util.h"

namespace strr {
namespace {

using testing_util::GetSharedStack;

/// A mixed bag of s- and m-queries over the shared test city, all at busy
/// hours so the regions are non-trivial.
std::vector<QueryPlan> MakeMixedPlans(const testing_util::SharedStack& stack) {
  const QueryPlanner& planner = stack.engine->planner();
  Mbr box = stack.engine->network().BoundingBox();
  XyPoint off_center{box.min_x() + box.Width() * 0.35,
                     box.min_y() + box.Height() * 0.4};
  XyPoint far_corner{box.min_x() + box.Width() * 0.7,
                     box.min_y() + box.Height() * 0.65};

  std::vector<QueryPlan> plans;
  auto add = [&](StatusOr<QueryPlan> plan) {
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(plan).value());
  };
  add(planner.PlanSQuery({stack.dataset.center, HMS(11), 600, 0.1}));
  add(planner.PlanSQuery({off_center, HMS(10), 900, 0.2}));
  add(planner.PlanSQuery({stack.dataset.center, HMS(9), 1200, 0.3}));
  add(planner.PlanSQuery({far_corner, HMS(12), 600, 0.1}));
  MQuery m;
  m.locations = {stack.dataset.center, off_center, far_corner};
  m.start_tod = HMS(10);
  m.duration = 600;
  m.prob = 0.1;
  add(planner.PlanMQuery(m, QueryStrategy::kIndexed));
  add(planner.PlanMQuery(m, QueryStrategy::kRepeatedS));
  return plans;
}

// --- QueryPlanner -----------------------------------------------------------

TEST(QueryPlannerTest, ResolvesTwoWayTwins) {
  auto& stack = GetSharedStack();
  auto plan = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(11), 600, 0.2});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->locations.size(), 1u);
  ASSERT_EQ(plan->location_starts.size(), 1u);
  EXPECT_FALSE(plan->location_starts[0].empty());
  EXPECT_EQ(plan->strategy, QueryStrategy::kIndexed);
  EXPECT_EQ(plan->AllStartSegments().size(), plan->location_starts[0].size());
}

TEST(QueryPlannerTest, ValidatesArguments) {
  auto& stack = GetSharedStack();
  const QueryPlanner& planner = stack.engine->planner();
  SQuery q{stack.dataset.center, HMS(11), 600, 0.0};
  EXPECT_TRUE(planner.PlanSQuery(q).status().IsInvalidArgument());
  q.prob = 1.5;
  EXPECT_TRUE(planner.PlanSQuery(q).status().IsInvalidArgument());
  q.prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(planner.PlanSQuery(q).status().IsInvalidArgument());
  q.prob = 0.2;
  q.duration = 0;
  EXPECT_TRUE(planner.PlanSQuery(q).status().IsInvalidArgument());
  MQuery m;  // no locations
  m.prob = 0.5;
  EXPECT_TRUE(planner.PlanMQuery(m).status().IsInvalidArgument());
  m.locations = {stack.dataset.center};
  m.prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(planner.PlanMQuery(m).status().IsInvalidArgument());
  m.prob = 0.5;
  EXPECT_TRUE(planner.PlanMQuery(m, QueryStrategy::kExhaustive)
                  .status()
                  .IsInvalidArgument());
}

TEST(QueryPlannerTest, SingleLocationRepeatedSNormalizesToIndexed) {
  auto& stack = GetSharedStack();
  auto plan = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(11), 600, 0.2}, QueryStrategy::kRepeatedS);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, QueryStrategy::kIndexed);
}

// --- QueryExecutor: batches --------------------------------------------------

TEST(QueryExecutorTest, BatchMatchesSequentialExecution) {
  auto& stack = GetSharedStack();
  std::vector<QueryPlan> plans = MakeMixedPlans(stack);
  ASSERT_FALSE(plans.empty());

  // Reference: sequential execution on a single-threaded executor.
  QueryExecutorOptions seq_opt;
  seq_opt.num_threads = 1;
  auto sequential = stack.engine->MakeExecutor(seq_opt);
  std::vector<RegionResult> reference;
  for (const QueryPlan& plan : plans) {
    auto r = sequential->Execute(plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference.push_back(std::move(r).value());
  }

  // Concurrent: 4 workers, parallel legs on.
  QueryExecutorOptions par_opt;
  par_opt.num_threads = 4;
  auto concurrent = stack.engine->MakeExecutor(par_opt);
  for (int round = 0; round < 3; ++round) {
    auto results = concurrent->ExecuteBatch(plans);
    ASSERT_EQ(results.size(), plans.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_EQ(results[i]->segments, reference[i].segments)
          << "plan " << i << " (" << QueryStrategyName(plans[i].strategy)
          << ") diverged from sequential execution in round " << round;
      EXPECT_DOUBLE_EQ(results[i]->total_length_m, reference[i].total_length_m);
    }
  }
}

TEST(QueryExecutorTest, ErrorPlansDoNotPoisonBatch) {
  auto& stack = GetSharedStack();
  auto good = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(11), 600, 0.1});
  ASSERT_TRUE(good.ok());

  QueryPlan bad_prob = *good;
  bad_prob.prob = 0.0;
  QueryPlan nan_prob = *good;
  nan_prob.prob = std::numeric_limits<double>::quiet_NaN();
  QueryPlan no_location;  // never touched a planner: no resolved starts
  QueryPlan bad_starts = *good;
  bad_starts.location_starts = {{}};

  std::vector<QueryPlan> plans = {*good,      bad_prob,   nan_prob,
                                  no_location, bad_starts, *good};
  auto executor = stack.engine->MakeExecutor({.num_threads = 4});
  auto results = executor->ExecuteBatch(plans);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsInvalidArgument());
  EXPECT_TRUE(results[2].status().IsInvalidArgument());
  EXPECT_TRUE(results[3].status().IsInvalidArgument());
  EXPECT_TRUE(results[4].status().IsInvalidArgument());
  EXPECT_TRUE(results[5].ok());
  EXPECT_EQ(results[0]->segments, results[5]->segments);
  EXPECT_FALSE(results[0]->segments.empty());
}

TEST(QueryExecutorTest, EmptyBatchIsFine) {
  auto& stack = GetSharedStack();
  auto results =
      stack.engine->executor().ExecuteBatch(std::span<const QueryPlan>{});
  EXPECT_TRUE(results.empty());
}

// --- QueryExecutor: parallel m-query legs ------------------------------------

TEST(QueryExecutorTest, ParallelRepeatedSLegsMatchSequentialAndSumWall) {
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
  auto plan =
      stack.engine->planner().PlanMQuery(m, QueryStrategy::kRepeatedS);
  ASSERT_TRUE(plan.ok());

  auto sequential = stack.engine->MakeExecutor(
      {.num_threads = 1, .parallel_mquery_legs = false});
  auto parallel = stack.engine->MakeExecutor(
      {.num_threads = 4, .parallel_mquery_legs = true});
  auto rs = sequential->Execute(*plan);
  auto rp = parallel->Execute(*plan);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  EXPECT_EQ(rs->segments, rp->segments);
  ASSERT_FALSE(rp->segments.empty());
  // Both report the per-leg sum alongside the end-to-end wall time; the
  // sum covers the legs regardless of how they were scheduled.
  EXPECT_GT(rs->stats.sum_wall_ms, 0.0);
  EXPECT_GT(rp->stats.sum_wall_ms, 0.0);
  // Sequentially, the end-to-end time covers all legs plus merge overhead.
  EXPECT_GE(rs->stats.wall_ms, rs->stats.sum_wall_ms * 0.5);
  EXPECT_EQ(rs->stats.segments_verified, rp->stats.segments_verified);
}

TEST(QueryExecutorTest, RepeatedSStatsSumSubQueries) {
  // The repeated-s baseline must report the same verification totals as
  // running its legs by hand, and wall/sum_wall must both be populated.
  auto& stack = GetSharedStack();
  Mbr box = stack.engine->network().BoundingBox();
  MQuery m;
  m.locations = {stack.dataset.center,
                 {box.min_x() + box.Width() * 0.4,
                  box.min_y() + box.Height() * 0.5}};
  m.start_tod = HMS(11);
  m.duration = 600;
  m.prob = 0.2;
  auto rep = stack.engine->MQueryRepeatedSQuery(m);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();

  uint64_t verified = 0;
  double wall_sum = 0.0;
  for (const XyPoint& p : m.locations) {
    auto r = stack.engine->SQueryIndexed({p, m.start_tod, m.duration, m.prob});
    ASSERT_TRUE(r.ok());
    verified += r->stats.segments_verified;
    wall_sum += r->stats.wall_ms;
  }
  EXPECT_EQ(rep->stats.segments_verified, verified);
  EXPECT_GT(rep->stats.sum_wall_ms, 0.0);
  EXPECT_GT(rep->stats.wall_ms, 0.0);
  (void)wall_sum;  // timing varies run to run; totals above are the check
}

// --- Hammer: one shared engine, many client threads --------------------------

TEST(QueryExecutorTest, ConcurrentClientsOverSharedEngineAgree) {
  auto& stack = GetSharedStack();
  std::vector<QueryPlan> plans = MakeMixedPlans(stack);
  ASSERT_FALSE(plans.empty());

  // Reference results, computed sequentially up front.
  std::vector<std::vector<SegmentId>> reference;
  for (const QueryPlan& plan : plans) {
    auto r = stack.engine->executor().Execute(plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference.push_back(r->segments);
  }

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        size_t i = (t + round) % plans.size();
        auto r = stack.engine->executor().Execute(plans[i]);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (r->segments != reference[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(QueryExecutorTest, ConcurrentBatchesOnFreshEngineWithColdConIndex) {
  // A fresh engine exercises the lazy Con-Index materialization race: many
  // concurrent queries force the same (segment, slot) tables at once.
  auto& stack = GetSharedStack();
  EngineOptions opt;
  opt.work_dir = testing_util::MakeTempDir("cold_executor");
  opt.delta_t_seconds = 300;
  opt.query_threads = 4;
  auto engine = ReachabilityEngine::Build(stack.dataset.network,
                                          *stack.dataset.store, opt);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<QueryPlan> plans;
  for (int i = 0; i < 8; ++i) {
    auto plan = (*engine)->planner().PlanSQuery(
        {stack.dataset.center, HMS(9 + (i % 4)), 600, 0.1});
    ASSERT_TRUE(plan.ok());
    plans.push_back(std::move(plan).value());
  }
  auto results = (*engine)->executor().ExecuteBatch(plans);
  ASSERT_EQ(results.size(), plans.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    // Identical plans must give identical regions regardless of which
    // thread materialized the Con-Index tables first.
    if (i >= 4) EXPECT_EQ(results[i]->segments, results[i - 4]->segments);
  }
}

}  // namespace
}  // namespace strr
