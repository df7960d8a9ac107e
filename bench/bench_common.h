// Shared fixture for the paper-reproduction benches.
//
// Builds (once, cached on disk under STRR_BENCH_CACHE or
// /tmp/strr_bench_cache) the benchmark-scale synthetic dataset — the
// stand-in for the paper's Shenzhen taxi month — and provides engine
// construction plus small table-printing helpers so every bench binary
// prints rows the same way.
#ifndef STRR_BENCH_BENCH_COMMON_H_
#define STRR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/persist.h"
#include "core/reachability_engine.h"
#include "query/query.h"

namespace strr {
namespace bench {

/// The dataset + a canonical busy query location (the paper queries a
/// fixed downtown location, s = (22.5311, 114.0550)).
///
/// Heap-allocated by LoadBenchStack: the engine holds pointers into
/// `dataset`, so the stack must never be moved after construction.
struct BenchStack {
  Dataset dataset;
  std::unique_ptr<ReachabilityEngine> engine;
  XyPoint query_location;
};

/// Scale knobs, overridable via STRR_BENCH_SCALE=small for smoke runs.
DatasetOptions BenchScaleOptions();

/// Loads the cached bench dataset or builds + caches it. Prints progress
/// to stderr (dataset generation takes tens of seconds on a cold cache).
StatusOr<Dataset> LoadOrBuildBenchDataset();

/// Builds an engine over `dataset` with the given Δt (seconds).
StatusOr<std::unique_ptr<ReachabilityEngine>> BuildBenchEngine(
    const Dataset& dataset, int64_t delta_t_seconds,
    size_t cache_pages = 8192);

/// Full stack with the default Δt = 5 min.
StatusOr<std::unique_ptr<BenchStack>> LoadBenchStack();

/// Picks the midpoint of the busiest segment (most 11:00 trajectories)
/// within `radius_m` of the city centre — a query location guaranteed to
/// have traffic, like the paper's downtown pick.
XyPoint PickBusyLocation(const ReachabilityEngine& engine,
                         const Dataset& dataset, int64_t tod,
                         double radius_m = 2500.0);

/// Prints an aligned table row of strings.
void PrintRow(const std::vector<std::string>& cells);

/// printf-style float cell.
std::string Cell(double value, int decimals = 1);

/// Emits a '# shape-check <name> PASS|FAIL' verdict line, one grep away
/// from each bench's output.
void ShapeCheck(const std::string& name, bool pass,
                const std::string& detail);

/// Runs one indexed s-query with a cold page cache and returns the result.
StatusOr<RegionResult> ColdSQueryIndexed(ReachabilityEngine& engine,
                                         const SQuery& query);

/// Runs the ES baseline with a cold page cache.
StatusOr<RegionResult> ColdSQueryExhaustive(ReachabilityEngine& engine,
                                            const SQuery& query);

}  // namespace bench
}  // namespace strr

#endif  // STRR_BENCH_BENCH_COMMON_H_
