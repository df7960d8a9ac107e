// FrontierEngine: the unified frontier-search core of the whole system.
//
// Every hot path the paper describes is one of two frontier expansions
// over the directed segment graph:
//
//  * TIMED expansion — the modified Incremental Network Expansion
//    (Dijkstra over travel time) behind Con-Index table construction
//    (Algorithm: Near/Far lists per Δt), the ES baseline cone, the
//    router, and MQMB's nearest-start assignment (Algorithm 3);
//  * CONE expansion — the Δt-hop walk over Con-Index Near/Far lists
//    behind SQMB (Algorithm 1) and MQMB bounding regions.
//
// Before src/search/ these interiors lived twice (roadnet/expansion.cc
// and query/bounding_region.cc), both single-threaded and re-allocating
// per call. The engine owns both, runs them on pooled ExpansionContexts
// (zero steady-state allocation), and offers a level-synchronous parallel
// mode with a DETERMINISTIC commit order.
//
// ## Arrival oracle
//
// The per-segment cost is pluggable: a SpeedFn maps a segment to the
// speed used for its traversal (<= 0 marks the segment blocked in this
// pass). Under the parallel runtime the oracle is invoked concurrently
// from gather workers and must be thread-safe (every oracle in the tree
// reads immutable profile/network state, so this holds by construction).
//
// ## Determinism argument (parallel == sequential, bit-identical)
//
// Timed expansion: labels are completion times; every relaxation applies
// the same canonical rule in both modes — a strictly smaller time always
// wins; on an exactly equal time the smaller origin (and parent) id wins.
// Costs are non-negative, so the (label, origin, parent) fixpoint of that
// rule is unique: labels are shortest-path times (order-independent
// min-plus algebra), and tie fields are the minimum over optimal
// predecessors, well-founded because predecessors on an optimal path
// never have larger labels. Sequential Dijkstra reaches this fixpoint by
// settling in label order (equal-time tie offers re-enqueue so they
// propagate); the parallel mode reaches it by delta-stepping: the heap
// yields buckets [t0, t0 + width) of the tentative frontier, each bucket
// iterates gather -> ordered-commit rounds to its own fixpoint before
// the next bucket opens, and a settled bucket can never reopen because
// any later relaxation starts from a label >= the bucket's upper bound.
// Candidate times are computed as label[pred] + cost from *committed*
// labels, so both modes evaluate the identical float expression for the
// winning path — results are bit-identical, not merely equivalent.
//
// Cone expansion: the hop walk is already level-synchronous (members
// discovered in step k expand in step k+1). The parallel mode splits one
// step's frontier across workers that only *read* shared state and emit
// (found, owner) candidates; the commit applies them on one thread in
// (frontier position, list position) order — exactly the sequential
// discovery order — so the member sequence, owners, and the last-frontier
// shell are identical by construction.
//
// Both modes fall back to inline execution per round/bucket when the
// frontier is below `min_parallel_frontier` — a scheduling choice that,
// by the argument above, cannot change results.
#ifndef STRR_SEARCH_FRONTIER_ENGINE_H_
#define STRR_SEARCH_FRONTIER_ENGINE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "roadnet/road_network.h"
#include "search/expansion_context.h"
#include "util/thread_pool.h"

namespace strr {

/// Per-segment speed oracle, meters/second. Must return > 0 for
/// traversable segments; return <= 0 to mark a segment non-traversable in
/// this pass. Thread-safe when used with a parallel runtime.
using SpeedFn = std::function<double(SegmentId)>;

/// One expansion hit: a segment plus the earliest completion time.
struct ExpansionHit {
  SegmentId segment;
  double arrival_seconds;  ///< time at which the segment is fully traversed
};

/// How (and whether) the engine fans one search's interior across threads.
/// Default = sequential. The pool is shared infrastructure (typically the
/// executor's interior pool); gather tasks submitted to it are pure
/// compute and never block, so any pool size makes progress — the calling
/// thread always works chunk 0 itself.
struct FrontierRuntime {
  ThreadPool* pool = nullptr;  ///< null = sequential
  int workers = 1;             ///< total chunks per round (caller included)
  /// Rounds with fewer frontier members run inline — fan-out overhead
  /// would exceed the work. Purely a scheduling decision (see file
  /// comment); results are unaffected.
  size_t min_parallel_frontier = 128;
  /// Delta-stepping bucket width for parallel timed expansion; <= 0
  /// derives budget / 48.
  double bucket_width_seconds = 0.0;

  // --- Raw-speed layout knobs (results bit-identical either way) ----------
  /// Stream the network's flat CSR adjacency (offset/neighbor/length
  /// arrays) instead of per-segment std::vector hops. Same neighbor order,
  /// same float expressions — a pure layout change.
  bool flat_adjacency = false;
  /// Software-prefetch successor label slots ahead of each relaxation.
  /// A scheduling hint only; no effect on results.
  bool prefetch = false;
  /// Partition parallel gather rounds by SegmentGrid cell (spatial
  /// locality) instead of arrival order. Candidates are re-sorted to the
  /// sequential commit order before applying, so results are unchanged.
  bool locality_chunking = false;

  bool parallel() const { return pool != nullptr && workers > 1; }
};

/// Work counters for one search, summed across its expansions. These feed
/// QueryStats (segments_expanded / heap_pops / parallel_rounds).
struct SearchMetrics {
  uint64_t segments_expanded = 0;  ///< frontier members expanded
  uint64_t heap_pops = 0;          ///< d-ary heap pops (timed mode)
  uint64_t parallel_rounds = 0;    ///< fanned gather/commit rounds

  void Add(const SearchMetrics& o) {
    segments_expanded += o.segments_expanded;
    heap_pops += o.heap_pops;
    parallel_rounds += o.parallel_rounds;
  }
};

/// See file comment. Cheap to construct (stores references); one engine
/// instance serves one search at a time (per context), but any number of
/// engines may run concurrently over the same network.
class FrontierEngine {
 public:
  explicit FrontierEngine(const RoadNetwork& network,
                          const FrontierRuntime& runtime = {})
      : network_(&network), runtime_(runtime) {}

  // --- Timed (Dijkstra / INE) expansion -------------------------------------

  struct TimedRequest {
    std::span<const SegmentId> sources;
    /// Completion-time budget; hits must finish within it. Infinite budget
    /// forces sequential execution (no bucket bound to step by).
    double budget = kUnreachedLabel;
    bool track_origin = false;  ///< record the winning source per segment
    bool track_parent = false;  ///< record the predecessor per segment
    /// Early exit once this segment settles (sequential only; used by
    /// point-to-point shortest path).
    SegmentId stop_at = kInvalidSegment;
  };

  /// Runs multi-source expansion into `ctx` (Begin is called internally).
  /// Afterwards ctx.reached() lists every segment whose traversal can
  /// complete within budget, with ctx.Label/Origin/Parent holding the
  /// per-segment results until the context's next Begin.
  void RunTimed(ExpansionContext& ctx, const TimedRequest& request,
                const SpeedFn& speed, SearchMetrics* metrics = nullptr) const;

  /// Materializes ctx results as hits sorted by (arrival, id).
  std::vector<ExpansionHit> HitsByArrival(const ExpansionContext& ctx) const;

  /// Materializes ctx results as segment ids sorted ascending — the form
  /// Con-Index Near/Far lists store.
  std::vector<SegmentId> ReachedSorted(const ExpansionContext& ctx) const;

  // --- Cone (Δt-hop reachability-list) expansion ----------------------------

  /// Reachability-list oracle: the segments reachable from `seg` within
  /// one Δt at the statistics slot covering `tod`. Must be thread-safe
  /// under a parallel runtime (Con-Index lazy materialization is).
  using ListFn =
      std::function<const std::vector<SegmentId>&(SegmentId seg, int64_t tod)>;

  /// MQMB elimination filter: return false to reject `found` discovered
  /// through `owner`'s cone. Must be pure/thread-safe.
  using ConeFilter =
      std::function<bool(SegmentId owner, SegmentId found)>;

  struct ConeRequest {
    std::span<const SegmentId> starts;
    int64_t start_tod = 0;
    int64_t duration_seconds = 0;
    int64_t delta_t_seconds = 300;       ///< hop width (k = ceil-ish L/Δt)
    int64_t profile_slot_seconds = 3600; ///< speed-statistics granularity
  };

  /// Runs the hop walk into `ctx`; returns the cone members sorted by id.
  /// Members carry their owning start in ctx.Origin. `last_frontier_out`
  /// (optional) receives the outermost expansion shell, sorted — the TBS
  /// seed when the cone saturates its component. Members are expanded at
  /// most once per profile slot (speeds only change across slots, so
  /// re-expansion below that granularity is provably a no-op).
  std::vector<SegmentId> RunCone(ExpansionContext& ctx,
                                 const ConeRequest& request,
                                 const ListFn& lists, const ConeFilter& filter,
                                 std::vector<SegmentId>* last_frontier_out,
                                 SearchMetrics* metrics = nullptr) const;

  const RoadNetwork& network() const { return *network_; }
  const FrontierRuntime& runtime() const { return runtime_; }

 private:
  void RunTimedSequential(ExpansionContext& ctx, const TimedRequest& request,
                          const SpeedFn& speed, SearchMetrics* metrics) const;
  void RunTimedParallel(ExpansionContext& ctx, const TimedRequest& request,
                        const SpeedFn& speed, SearchMetrics* metrics) const;

  /// Seeds sources into ctx with the canonical relax rule; pushes heap
  /// entries for reached sources.
  void SeedSources(ExpansionContext& ctx, const TimedRequest& request,
                   const SpeedFn& speed) const;

  const RoadNetwork* network_;
  FrontierRuntime runtime_;
};

}  // namespace strr

#endif  // STRR_SEARCH_FRONTIER_ENGINE_H_
