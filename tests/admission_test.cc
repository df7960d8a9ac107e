// Tests for the query front door's admission control: deterministic
// ticket/queue accounting on WfqAdmissionController's default tenant (the
// single-tenant case), typed ResourceExhausted shedding, completion of
// already-admitted work, and executor-level behaviour — an over-capacity
// ExecuteBatch sheds instead of queueing unboundedly, and a saturating
// batch cannot starve concurrent single queries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/query_executor.h"
#include "core/reachability_engine.h"
#include "core/tenant_registry.h"
#include "core/wfq_admission.h"
#include "query/query_plan.h"
#include "tests/test_util.h"

namespace strr {
namespace {

using testing_util::GetSharedStack;

// --- Default-tenant WFQ unit behaviour ---------------------------------------

TEST(WfqDefaultTenantTest, TicketAndBatchShareAccounting) {
  // 4 tickets, batches capped at half of them, nobody may wait.
  TenantRegistry registry({.weight = 1, .max_inflight = 0, .max_queued = 0});
  WfqAdmissionController wfq({.max_inflight = 4, .batch_share = 0.5},
                             &registry);

  EXPECT_TRUE(wfq.TryAdmitBatch(kDefaultTenant).ok());
  EXPECT_TRUE(wfq.TryAdmitBatch(kDefaultTenant).ok());
  Status third = wfq.TryAdmitBatch(kDefaultTenant);
  EXPECT_TRUE(third.IsResourceExhausted()) << third.ToString();

  // The two tickets batches may not touch still admit singles.
  EXPECT_TRUE(wfq.Admit(kDefaultTenant).ok());
  EXPECT_TRUE(wfq.Admit(kDefaultTenant).ok());
  EXPECT_EQ(wfq.inflight(), 4u);

  // Full house, empty queue: the next single sheds typed.
  Status full = wfq.Admit(kDefaultTenant);
  EXPECT_TRUE(full.IsResourceExhausted()) << full.ToString();

  wfq.ReleaseBatch(kDefaultTenant);
  EXPECT_TRUE(wfq.TryAdmitBatch(kDefaultTenant).ok());  // batch slot freed
  wfq.Release(kDefaultTenant);
  wfq.Release(kDefaultTenant);
  wfq.ReleaseBatch(kDefaultTenant);
  wfq.ReleaseBatch(kDefaultTenant);
  EXPECT_EQ(wfq.inflight(), 0u);

  WfqAdmissionController::Stats stats = wfq.stats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.shed, 2u);
}

TEST(WfqDefaultTenantTest, BoundedQueueWaitsThenSheds) {
  TenantRegistry registry({.weight = 1, .max_inflight = 0, .max_queued = 1});
  WfqAdmissionController wfq({.max_inflight = 1}, &registry);
  ASSERT_TRUE(wfq.Admit(kDefaultTenant).ok());  // occupy the only ticket

  std::atomic<bool> waiter_admitted{false};
  std::thread waiter([&] {
    Status s = wfq.Admit(kDefaultTenant);  // queues (1 of 1), then blocks
    EXPECT_TRUE(s.ok()) << s.ToString();
    waiter_admitted.store(true);
    wfq.Release(kDefaultTenant);
  });
  while (wfq.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(waiter_admitted.load());

  // Queue is now full: a third caller is shed immediately, typed.
  Status shed = wfq.Admit(kDefaultTenant);
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();

  // Releasing the ticket hands it to the queued waiter, which completes:
  // admitted work is never shed after the fact.
  wfq.Release(kDefaultTenant);
  waiter.join();
  EXPECT_TRUE(waiter_admitted.load());
  EXPECT_EQ(wfq.inflight(), 0u);
  EXPECT_EQ(wfq.stats().shed, 1u);
  EXPECT_EQ(wfq.stats().admitted, 2u);
}

// --- Executor-level shedding ------------------------------------------------

TEST(QueryExecutorAdmissionTest, OverCapacityBatchShedsTyped) {
  auto& stack = GetSharedStack();
  auto plan = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(11), 600, 0.2});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto reference = stack.engine->executor().Execute(*plan);
  ASSERT_TRUE(reference.ok());

  QueryExecutorOptions opt;
  opt.num_threads = 4;
  opt.max_inflight = 2;
  opt.batch_share = 1.0;
  auto executor = stack.engine->MakeExecutor(opt);

  constexpr size_t kBatch = 40;
  std::vector<QueryPlan> plans(kBatch, *plan);
  auto results = executor->ExecuteBatch(plans);
  ASSERT_EQ(results.size(), kBatch);

  size_t ok = 0, shed = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++ok;
      // Admitted plans complete correctly; shedding never corrupts them.
      EXPECT_EQ(r->segments, reference->segments);
    } else {
      ++shed;
      EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
    }
  }
  EXPECT_EQ(ok + shed, kBatch);
  EXPECT_GE(ok, 2u);  // capacity's worth of work was admitted and finished
  // Submission takes microseconds against millisecond queries: nearly the
  // whole overhang sheds. Generous slack for completions mid-submission.
  EXPECT_GE(shed, kBatch - 12);
  EXPECT_EQ(executor->front_door_stats().shed, shed);
  EXPECT_EQ(executor->wfq_admission()->inflight(), 0u);
}

TEST(QueryExecutorAdmissionTest, SaturatingBatchCannotStarveSingles) {
  auto& stack = GetSharedStack();
  const QueryPlanner& planner = stack.engine->planner();
  auto batch_plan = planner.PlanSQuery(
      {stack.dataset.center, HMS(10), 600, 0.1});
  Mbr box = stack.engine->network().BoundingBox();
  auto single_plan = planner.PlanSQuery(
      {{box.min_x() + box.Width() * 0.4, box.min_y() + box.Height() * 0.45},
       HMS(11),
       600,
       0.2});
  ASSERT_TRUE(batch_plan.ok());
  ASSERT_TRUE(single_plan.ok());

  QueryExecutorOptions opt;
  opt.num_threads = 4;
  opt.max_inflight = 4;
  opt.batch_share = 0.5;  // batches hold at most 2 of the 4 tickets
  auto executor = stack.engine->MakeExecutor(opt);

  // A client that saturates the executor with back-to-back big batches.
  std::atomic<bool> stop{false};
  std::atomic<bool> batch_shed{false};
  std::thread batcher([&] {
    std::vector<QueryPlan> plans(16, *batch_plan);
    while (!stop.load()) {
      // Sheds are expected here; they show the batch saturated capacity.
      for (const auto& r : executor->ExecuteBatch(plans)) {
        if (!r.ok()) batch_shed.store(true);
      }
    }
  });

  // Meanwhile two single-query clients must keep getting served: the
  // batch share leaves them dedicated tickets, so none is ever shed. They
  // run at least ten rounds, and on until a batch has been shed, since ten
  // quick rounds can finish before the batcher's first batch arrives.
  std::atomic<int> single_failures{0};
  std::vector<std::thread> singles;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  for (int t = 0; t < 2; ++t) {
    singles.emplace_back([&] {
      for (int round = 0;
           round < 10 || (!batch_shed.load() &&
                          std::chrono::steady_clock::now() < deadline);
           ++round) {
        auto r = executor->Execute(*single_plan);
        if (!r.ok()) single_failures.fetch_add(1);
      }
    });
  }
  for (auto& s : singles) s.join();
  stop.store(true);
  batcher.join();

  EXPECT_EQ(single_failures.load(), 0)
      << "single queries were shed or failed while a batch saturated the "
         "executor";
  EXPECT_GT(executor->front_door_stats().shed, 0u)
      << "the batch never actually saturated capacity";
}

TEST(QueryExecutorAdmissionTest, MQueryLegsAreNotReadmitted) {
  // A parallel repeated-s m-query fans its legs onto the pool. With a
  // capacity of one, re-admitting legs would shed or deadlock mid-query;
  // the front door must treat the admitted m-query as one unit.
  auto& stack = GetSharedStack();
  Mbr box = stack.engine->network().BoundingBox();
  MQuery m;
  m.locations = {stack.dataset.center,
                 {box.min_x() + box.Width() * 0.35,
                  box.min_y() + box.Height() * 0.4},
                 {box.min_x() + box.Width() * 0.65,
                  box.min_y() + box.Height() * 0.6}};
  m.start_tod = HMS(10);
  m.duration = 600;
  m.prob = 0.1;
  auto plan = stack.engine->planner().PlanMQuery(m, QueryStrategy::kRepeatedS);
  ASSERT_TRUE(plan.ok());

  auto reference = stack.engine->executor().Execute(*plan);
  ASSERT_TRUE(reference.ok());

  QueryExecutorOptions opt;
  opt.num_threads = 4;
  opt.parallel_mquery_legs = true;
  opt.max_inflight = 1;  // tightest possible: the m-query takes the ticket
  auto executor = stack.engine->MakeExecutor(opt);
  auto r = executor->Execute(*plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->segments, reference->segments);
  EXPECT_EQ(executor->front_door_stats().shed, 0u);
  EXPECT_EQ(executor->wfq_admission()->inflight(), 0u);
}

}  // namespace
}  // namespace strr
