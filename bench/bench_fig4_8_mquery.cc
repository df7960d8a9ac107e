// Figure 4.8 — m-query: MQMB+TBS vs repeated SQMB+TBS, executor edition.
//
// (a) running time over duration L for a 3-location m-query;
// (b) running time over the number of locations n ∈ {1..9}, L = 20 min;
// (c) one 5-location MQMB plan on a fresh single-threaded executor: the
//     wall clock (median of 3 warm runs), segments_expanded and heap_pops,
//     and whether every run matched the engine executor's region. The
//     work counts are deterministic at a given scale, so
//     check_regression.py holds them to the committed baseline exactly.
//
// Unlike the original facade version, every query here is planned ONCE
// via QueryPlanner and executed through QueryExecutor (the production
// plan -> execute path), so strategy comparisons reuse identical resolved
// plans and the front-door stats machinery is what gets measured.
//
// Expected shapes (paper): MQMB+TBS beats repeated s-queries for n >= 2
// and is slightly slower at n = 1 (the extra overlap-elimination stage);
// repeated s-query cost grows ~linearly in n while MQMB flattens out.
//
// Set STRR_BENCH_JSON=<path> to record the part (c) row as JSON — the
// committed BENCH_throughput.json carries it under "fig4_8_mquery_executor".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/query_executor.h"
#include "query/query_plan.h"
#include "util/stopwatch.h"

using namespace strr;        // NOLINT
using namespace strr::bench;  // NOLINT

namespace {

/// n spread-out query locations: the busy downtown spot plus points spaced
/// around it at 25-45% of the city span.
std::vector<XyPoint> MakeLocations(const BenchStack& stack, int n) {
  std::vector<XyPoint> out;
  Mbr box = stack.dataset.network.BoundingBox();
  out.push_back(stack.query_location);
  for (int i = 1; i < n; ++i) {
    double angle = 2.0 * M_PI * i / 9.0;
    double rx = box.Width() * (0.18 + 0.04 * (i % 3));
    double ry = box.Height() * (0.18 + 0.04 * ((i + 1) % 3));
    out.push_back({stack.dataset.center.x + std::cos(angle) * rx,
                   stack.dataset.center.y + std::sin(angle) * ry});
  }
  return out;
}

MQuery MakeQuery(const BenchStack& stack, int n, int64_t duration) {
  MQuery q;
  q.locations = MakeLocations(stack, n);
  q.start_tod = HMS(10);
  q.duration = duration;
  q.prob = 0.2;
  return q;
}

/// Plans once, runs warm + timed through the executor with a cold page
/// cache per timed run (same protocol the facade benches used).
StatusOr<RegionResult> TimedExecute(ReachabilityEngine& engine,
                                    QueryExecutor& executor,
                                    const QueryPlan& plan) {
  engine.ResetIoStats(true);
  auto warm = executor.Execute(plan);
  if (!warm.ok()) return warm;
  engine.ResetIoStats(true);
  return executor.Execute(plan);
}

struct MQueryRow {
  double wall_ms = 0.0;
  uint64_t segments_expanded = 0;
  uint64_t heap_pops = 0;
  bool identical = true;
};

}  // namespace

int main() {
  auto maybe_stack = LoadBenchStack();
  if (!maybe_stack.ok()) {
    std::fprintf(stderr, "FATAL: %s\n",
                 maybe_stack.status().ToString().c_str());
    return 1;
  }
  BenchStack& stack = **maybe_stack;
  ReachabilityEngine& engine = *stack.engine;
  const QueryPlanner& planner = engine.planner();
  QueryExecutor& executor = engine.executor();

  std::printf("Figure 4.8(a): 3-location m-query over duration "
              "(T=10:00, Prob=20%%, plan->execute path)\n");
  PrintRow({"L(min)", "mq_ms", "rep_ms", "mq_lists", "rep_lists",
            "mq_len_km"});
  bool mq_wins_duration = true;
  for (int minutes = 5; minutes <= 35; minutes += 5) {
    MQuery q = MakeQuery(stack, 3, minutes * 60);
    auto mq_plan = planner.PlanMQuery(q, QueryStrategy::kIndexed);
    auto rep_plan = planner.PlanMQuery(q, QueryStrategy::kRepeatedS);
    if (!mq_plan.ok() || !rep_plan.ok()) {
      std::fprintf(stderr, "FATAL: planning failed at L=%d\n", minutes);
      return 1;
    }
    auto mq = TimedExecute(engine, executor, *mq_plan);
    auto rep = TimedExecute(engine, executor, *rep_plan);
    if (!mq.ok() || !rep.ok()) {
      std::fprintf(stderr, "FATAL at L=%d\n", minutes);
      return 1;
    }
    PrintRow({std::to_string(minutes), Cell(mq->stats.wall_ms, 2),
              Cell(rep->stats.wall_ms, 2),
              std::to_string(mq->stats.time_lists_read),
              std::to_string(rep->stats.time_lists_read),
              Cell(mq->total_length_m / 1000.0, 1)});
    if (minutes >= 15 &&
        mq->stats.time_lists_read > rep->stats.time_lists_read) {
      mq_wins_duration = false;
    }
  }
  ShapeCheck("fig4.8a.mqmb_fewer_lists", mq_wins_duration,
             "MQMB reads fewer time lists than 3x SQMB for L >= 15");

  std::printf("\nFigure 4.8(b): m-query over #locations "
              "(T=10:00, L=20min, Prob=20%%, plan->execute path)\n");
  PrintRow({"n", "mq_ms", "rep_ms", "mq_lists", "rep_lists"});
  double rep1 = 0, rep9 = 0, mq1 = 0, mq9 = 0;
  bool mq_wins_counts = true;
  for (int n = 1; n <= 9; n += 2) {
    MQuery q = MakeQuery(stack, n, 1200);
    auto mq_plan = planner.PlanMQuery(q, QueryStrategy::kIndexed);
    auto rep_plan = planner.PlanMQuery(q, QueryStrategy::kRepeatedS);
    if (!mq_plan.ok() || !rep_plan.ok()) {
      std::fprintf(stderr, "FATAL: planning failed at n=%d\n", n);
      return 1;
    }
    auto mq = TimedExecute(engine, executor, *mq_plan);
    auto rep = TimedExecute(engine, executor, *rep_plan);
    if (!mq.ok() || !rep.ok()) {
      std::fprintf(stderr, "FATAL at n=%d\n", n);
      return 1;
    }
    PrintRow({std::to_string(n), Cell(mq->stats.wall_ms, 2),
              Cell(rep->stats.wall_ms, 2),
              std::to_string(mq->stats.time_lists_read),
              std::to_string(rep->stats.time_lists_read)});
    if (n == 1) {
      rep1 = rep->stats.wall_ms;
      mq1 = mq->stats.wall_ms;
    }
    if (n == 9) {
      rep9 = rep->stats.wall_ms;
      mq9 = mq->stats.wall_ms;
    }
    if (n >= 3 && mq->stats.time_lists_read > rep->stats.time_lists_read) {
      mq_wins_counts = false;
    }
  }

  ShapeCheck("fig4.8b.mqmb_fewer_lists", mq_wins_counts,
             "MQMB reads fewer time lists than n x SQMB for n >= 3");
  ShapeCheck("fig4.8b.repeated_grows_faster",
             (rep9 - rep1) > (mq9 - mq1),
             "repeated s-query grows " + Cell(rep9 - rep1, 1) +
                 " ms (1->9 locs) vs MQMB " + Cell(mq9 - mq1, 1) + " ms");

  // --- (c) one m-query row on the sequential interior ----------------------
  std::printf("\nFigure 4.8(c): MQMB interior "
              "(5 locations, T=10:00, L=20min, median of 3)\n");
  PrintRow({"wall_ms", "expanded", "heap_pops", "identical"});
  MQueryRow row;
  {
    MQuery q = MakeQuery(stack, 5, 1200);
    auto plan = planner.PlanMQuery(q, QueryStrategy::kIndexed);
    if (!plan.ok()) {
      std::fprintf(stderr, "FATAL: part (c) planning failed\n");
      return 1;
    }
    auto reference = executor.Execute(*plan);
    if (!reference.ok()) {
      std::fprintf(stderr, "FATAL: part (c) reference failed\n");
      return 1;
    }
    auto row_exec = engine.MakeExecutor({.num_threads = 1});
    // Warm lazy Con-Index tables + page cache once.
    if (!row_exec->Execute(*plan).ok()) {
      std::fprintf(stderr, "FATAL: part (c) warm-up failed\n");
      return 1;
    }
    std::vector<double> times;
    for (int run = 0; run < 3; ++run) {
      Stopwatch watch;
      auto result = row_exec->Execute(*plan);
      times.push_back(watch.ElapsedMillis());
      if (!result.ok()) {
        std::fprintf(stderr, "FATAL: part (c) run failed\n");
        return 1;
      }
      row.segments_expanded = result->stats.segments_expanded;
      row.heap_pops = result->stats.heap_pops;
      if (result->segments != reference->segments) row.identical = false;
    }
    std::sort(times.begin(), times.end());
    row.wall_ms = times[1];
    PrintRow({Cell(row.wall_ms, 2), std::to_string(row.segments_expanded),
              std::to_string(row.heap_pops), row.identical ? "yes" : "NO"});
    if (!row.identical) {
      std::fprintf(stderr, "FATAL: part (c) region diverged\n");
      return 1;
    }
  }

  if (const char* json_path = std::getenv("STRR_BENCH_JSON")) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", json_path);
      return 1;
    }
    const char* scale_env = std::getenv("STRR_BENCH_SCALE");
    const std::string scale =
        (scale_env != nullptr && scale_env[0] != '\0') ? scale_env : "full";
    std::fprintf(f, "{\n  \"bench\": \"fig4_8_mquery_executor\",\n");
    std::fprintf(f, "  \"scale\": \"%s\",\n", scale.c_str());
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f,
                 "  \"query\": {\"locations\": 5, \"duration_s\": 1200, "
                 "\"start\": \"10:00\", \"prob\": 0.2},\n");
    std::fprintf(
        f,
        "  \"sequential_row\": {\"wall_ms\": %.2f, "
        "\"segments_expanded\": %llu, \"heap_pops\": %llu, "
        "\"identical\": %s}\n}\n",
        row.wall_ms, static_cast<unsigned long long>(row.segments_expanded),
        static_cast<unsigned long long>(row.heap_pops),
        row.identical ? "true" : "false");
    std::fclose(f);
    std::fprintf(stderr, "# wrote %s\n", json_path);
  }
  return 0;
}
