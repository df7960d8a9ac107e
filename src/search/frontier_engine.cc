#include "search/frontier_engine.h"

#include <algorithm>
#include <future>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "roadnet/csr_graph.h"
#include "util/time_util.h"

namespace strr {

namespace {

obs::Counter& HeapPopsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_search_heap_pops_total");
  return c;
}
obs::Counter& SegmentsExpandedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_search_segments_expanded_total");
  return c;
}
obs::Counter& ParallelRoundsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_search_parallel_rounds_total");
  return c;
}

/// Folds one search's per-call tallies into the process counters. Called
/// on the orchestrating thread only, once per search, so pool workers
/// never touch the registry from the hot gather loops.
void RecordSearchCounters(uint64_t pops, uint64_t expanded, uint64_t rounds) {
  if (pops != 0) HeapPopsCounter().Add(pops);
  if (expanded != 0) SegmentsExpandedCounter().Add(expanded);
  if (rounds != 0) ParallelRoundsCounter().Add(rounds);
}

/// Number of Δt hops for duration L: k with kΔt <= L < (k+1)Δt, at least 1.
int NumHops(int64_t duration, int64_t delta_t) {
  int k = static_cast<int>(duration / delta_t);
  return k < 1 ? 1 : k;
}

// --- Adjacency policies -----------------------------------------------------
//
// The hot loops are templated over one of these so the legacy path keeps
// its exact code shape (no per-edge branch) and the CSR path streams flat
// arrays. Both expose the same neighbor order and compute the same float
// expressions, so the choice cannot change results.

struct LegacyAdjacency {
  const RoadNetwork* net;
  const std::vector<SegmentId>& Out(SegmentId s) const {
    return net->OutgoingOf(s);
  }
  double Cost(SegmentId next, double sp) const {
    return net->segment(next).TravelTimeSeconds(sp);
  }
};

struct FlatAdjacency {
  const CsrAdjacency* csr;
  std::span<const SegmentId> Out(SegmentId s) const { return csr->Out(s); }
  // Callers check sp > 0 before Cost, so this is the identical expression
  // RoadSegment::TravelTimeSeconds evaluates on the sp > 0 branch.
  double Cost(SegmentId next, double sp) const {
    return csr->length(next) / sp;
  }
};

/// Sorts `perm` (indices into `frontier`) by spatial cell so one gather
/// chunk works road-network-close segments. Ties keep frontier order, so
/// the permutation is deterministic.
void BuildLocalityPermutation(const CsrAdjacency& csr,
                              const std::vector<SegmentId>& frontier,
                              std::vector<uint32_t>& perm) {
  perm.resize(frontier.size());
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t ra = csr.cell_rank(frontier[a]);
    const uint32_t rb = csr.cell_rank(frontier[b]);
    if (ra != rb) return ra < rb;
    return a < b;
  });
}

/// Restores the sequential commit order after a permuted gather: ascending
/// producing-frontier position. Candidates of one position are contiguous
/// in one worker's buffer (list order); stable_sort keeps them that way.
void SortCandidatesByPos(std::vector<FrontierCandidate>& cands) {
  std::stable_sort(cands.begin(), cands.end(),
                   [](const FrontierCandidate& a, const FrontierCandidate& b) {
                     return a.pos < b.pos;
                   });
}

// --- Timed expansion interiors ----------------------------------------------

template <bool kPrefetch, typename Adj>
void SequentialLoop(ExpansionContext& ctx,
                    const FrontierEngine::TimedRequest& request,
                    const SpeedFn& speed, const Adj& adj,
                    SearchMetrics* metrics) {
  uint64_t pops = 0, expanded = 0;
  double t;
  SegmentId s;
  while (ctx.HeapPop(&t, &s)) {
    ++pops;
    if (t > ctx.Label(s)) continue;  // stale entry
    ++expanded;
    if (s == request.stop_at) break;  // settled; Dijkstra guarantees optimal
    const SegmentId org =
        request.track_origin ? ctx.Origin(s) : kInvalidSegment;
    const auto& nexts = adj.Out(s);
    if constexpr (kPrefetch) {
      for (SegmentId nxt : nexts) ctx.PrefetchSlot(nxt);
    }
    for (SegmentId next : nexts) {
      double sp = speed(next);
      if (sp <= 0.0) continue;
      double t2 = t + adj.Cost(next, sp);
      if (t2 > request.budget) continue;
      double cur = ctx.Label(next);
      if (t2 < cur) {
        ctx.SetLabel(next, t2);
        if (request.track_origin) ctx.SetOrigin(next, org);
        if (request.track_parent) ctx.SetParent(next, s);
        ctx.HeapPush(t2, next);
      } else if (t2 == cur) {
        // Canonical tie rule (see header): the smaller origin/parent id
        // wins on an exactly equal completion time. Re-enqueue so the
        // improvement propagates even past already-expanded segments.
        bool improved = false;
        if (request.track_origin && org < ctx.Origin(next)) {
          ctx.SetOrigin(next, org);
          improved = true;
        }
        if (request.track_parent && s < ctx.Parent(next)) {
          ctx.SetParent(next, s);
          improved = true;
        }
        if (improved) ctx.HeapPush(t2, next);
      }
    }
  }
  if (metrics != nullptr) {
    metrics->heap_pops += pops;
    metrics->segments_expanded += expanded;
  }
  RecordSearchCounters(pops, expanded, 0);
}

/// Gathers relaxation candidates for permuted frontier slots [begin, end)
/// into `out`. Read-only against shared ctx state (commit happens between
/// phases). `perm` == nullptr walks the frontier in order.
template <bool kPrefetch, typename Adj>
void GatherTimed(const ExpansionContext& ctx,
                 const FrontierEngine::TimedRequest& request,
                 const SpeedFn& speed, const Adj& adj,
                 const std::vector<SegmentId>& frontier, const uint32_t* perm,
                 size_t begin, size_t end,
                 std::vector<FrontierCandidate>& out) {
  out.clear();
  for (size_t j = begin; j < end; ++j) {
    const uint32_t i =
        perm != nullptr ? perm[j] : static_cast<uint32_t>(j);
    SegmentId u = frontier[i];
    const double lu = ctx.Label(u);
    const SegmentId org =
        request.track_origin ? ctx.Origin(u) : kInvalidSegment;
    const auto& nexts = adj.Out(u);
    if constexpr (kPrefetch) {
      for (SegmentId nxt : nexts) ctx.PrefetchSlot(nxt);
    }
    for (SegmentId nxt : nexts) {
      double sp = speed(nxt);
      if (sp <= 0.0) continue;
      double t2 = lu + adj.Cost(nxt, sp);
      if (t2 > request.budget) continue;
      double cur = ctx.Label(nxt);
      if (t2 > cur) continue;
      if (t2 == cur) {
        bool could_improve =
            (request.track_origin && org < ctx.Origin(nxt)) ||
            (request.track_parent && u < ctx.Parent(nxt));
        if (!could_improve) continue;
      }
      out.push_back(FrontierCandidate{nxt, org, u, i, t2});
    }
  }
}

template <bool kPrefetch, typename Adj>
void ParallelLoop(ExpansionContext& ctx,
                  const FrontierEngine::TimedRequest& request,
                  const SpeedFn& speed, const Adj& adj,
                  const FrontierRuntime& runtime,
                  const CsrAdjacency* locality_csr, SearchMetrics* metrics) {
  const double width = runtime.bucket_width_seconds > 0.0
                           ? runtime.bucket_width_seconds
                           : std::max(request.budget / 48.0, 1e-9);
  const size_t workers = static_cast<size_t>(std::max(runtime.workers, 1));
  ctx.EnsureWorkerBuffers(workers);
  std::vector<SegmentId>& frontier = ctx.frontier();
  std::vector<SegmentId>& next = ctx.next_frontier();
  uint64_t pops = 0, expanded = 0, rounds = 0;
  // Monotone wave ids distinguish frontier generations in ctx.Mark for
  // O(1) dedup of frontier additions.
  int32_t wave = 0;

  double t;
  SegmentId s;
  for (;;) {
    // Open the next delta-stepping bucket: [t0, t0 + width], where t0 is
    // the smallest live tentative label remaining.
    frontier.clear();
    bool have_bucket = false;
    double t0 = 0.0;
    while (ctx.HeapPop(&t, &s)) {
      ++pops;
      if (t > ctx.Label(s)) continue;  // stale
      t0 = t;
      have_bucket = true;
      break;
    }
    if (!have_bucket) break;
    const double bucket_end = t0 + width;
    ++wave;
    ctx.SetMark(s, wave);
    frontier.push_back(s);
    while (!ctx.HeapEmpty() && ctx.HeapMinTime() <= bucket_end) {
      ctx.HeapPop(&t, &s);
      ++pops;
      if (t > ctx.Label(s)) continue;
      if (ctx.Mark(s) == wave) continue;  // duplicate live entry
      ctx.SetMark(s, wave);
      frontier.push_back(s);
    }

    // Iterate gather -> ordered-commit rounds until the bucket's labels
    // (and tie fields) reach their fixpoint.
    while (!frontier.empty()) {
      expanded += frontier.size();
      size_t chunks = 1;
      bool permuted = false;
      if (frontier.size() >= runtime.min_parallel_frontier && workers > 1) {
        ++rounds;
        chunks = std::min(workers, frontier.size());
        const uint32_t* perm = nullptr;
        if (locality_csr != nullptr) {
          BuildLocalityPermutation(*locality_csr, frontier,
                                   ctx.permutation());
          perm = ctx.permutation().data();
          permuted = true;
        }
        const size_t per = (frontier.size() + chunks - 1) / chunks;
        std::vector<std::future<int>> joins;
        joins.reserve(chunks - 1);
        for (size_t c = 1; c < chunks; ++c) {
          size_t begin = c * per;
          size_t end = std::min(begin + per, frontier.size());
          joins.push_back(runtime.pool->Submit(
              [&ctx, &request, &speed, &adj, &frontier, perm, begin, end,
               c]() -> int {
                GatherTimed<kPrefetch>(ctx, request, speed, adj, frontier,
                                       perm, begin, end,
                                       ctx.worker_buffer(c));
                return 0;
              }));
        }
        GatherTimed<kPrefetch>(ctx, request, speed, adj, frontier, perm, 0,
                               std::min(per, frontier.size()),
                               ctx.worker_buffer(0));
        for (auto& j : joins) j.get();
      } else {
        GatherTimed<kPrefetch>(ctx, request, speed, adj, frontier, nullptr,
                               0, frontier.size(), ctx.worker_buffer(0));
      }

      ++wave;
      next.clear();
      auto commit_one = [&](const FrontierCandidate& cand) {
        double cur = ctx.Label(cand.target);
        bool changed = false;
        if (cand.time < cur) {
          ctx.SetLabel(cand.target, cand.time);
          if (request.track_origin) ctx.SetOrigin(cand.target, cand.aux);
          if (request.track_parent) ctx.SetParent(cand.target, cand.parent);
          if (cand.time > bucket_end) {
            // Future bucket: hand back to the heap (the old entry, if
            // any, just went stale).
            ctx.HeapPush(cand.time, cand.target);
          } else {
            changed = true;
          }
        } else if (cand.time == cur) {
          if (request.track_origin && cand.aux < ctx.Origin(cand.target)) {
            ctx.SetOrigin(cand.target, cand.aux);
            changed = true;
          }
          if (request.track_parent &&
              cand.parent < ctx.Parent(cand.target)) {
            ctx.SetParent(cand.target, cand.parent);
            changed = true;
          }
          // A tie improvement beyond this bucket propagates when its own
          // bucket expands the segment; only in-bucket changes re-enter
          // the fixpoint now.
          if (cand.time > bucket_end) changed = false;
        }
        if (changed && ctx.Mark(cand.target) != wave) {
          ctx.SetMark(cand.target, wave);
          next.push_back(cand.target);
        }
      };
      if (permuted) {
        // Locality-chunked gathers produce candidates out of frontier
        // order; merge and restore ascending-position order so the commit
        // is exactly the sequential one.
        std::vector<FrontierCandidate>& merged = ctx.commit_buffer();
        merged.clear();
        for (size_t c = 0; c < chunks; ++c) {
          const std::vector<FrontierCandidate>& b = ctx.worker_buffer(c);
          merged.insert(merged.end(), b.begin(), b.end());
        }
        SortCandidatesByPos(merged);
        for (const FrontierCandidate& cand : merged) commit_one(cand);
      } else {
        for (size_t c = 0; c < chunks; ++c) {
          for (const FrontierCandidate& cand : ctx.worker_buffer(c)) {
            commit_one(cand);
          }
        }
      }
      frontier.swap(next);
    }
  }
  if (metrics != nullptr) {
    metrics->heap_pops += pops;
    metrics->segments_expanded += expanded;
    metrics->parallel_rounds += rounds;
  }
  RecordSearchCounters(pops, expanded, rounds);
}

}  // namespace

void FrontierEngine::SeedSources(ExpansionContext& ctx,
                                 const TimedRequest& request,
                                 const SpeedFn& speed) const {
  const size_t n = network_->NumSegments();
  for (SegmentId src : request.sources) {
    if (src >= n) continue;
    double sp = speed(src);
    if (sp <= 0.0) continue;
    double t = network_->segment(src).TravelTimeSeconds(sp);
    if (t > request.budget) continue;
    double cur = ctx.Label(src);
    if (t < cur) {
      ctx.SetLabel(src, t);
      if (request.track_origin) ctx.SetOrigin(src, src);
      if (request.track_parent) ctx.SetParent(src, kInvalidSegment);
      ctx.HeapPush(t, src);
    } else if (t == cur && request.track_origin && src < ctx.Origin(src)) {
      ctx.SetOrigin(src, src);
      ctx.HeapPush(t, src);
    }
  }
}

void FrontierEngine::RunTimed(ExpansionContext& ctx,
                              const TimedRequest& request, const SpeedFn& speed,
                              SearchMetrics* metrics) const {
  obs::TraceSpan span("frontier_expand", request.sources.size());
  ctx.Begin(network_->NumSegments());
  const bool parallel = runtime_.parallel() &&
                        request.budget < kUnreachedLabel &&
                        request.stop_at == kInvalidSegment;
  if (parallel) {
    RunTimedParallel(ctx, request, speed, metrics);
  } else {
    RunTimedSequential(ctx, request, speed, metrics);
  }
}

void FrontierEngine::RunTimedSequential(ExpansionContext& ctx,
                                        const TimedRequest& request,
                                        const SpeedFn& speed,
                                        SearchMetrics* metrics) const {
  SeedSources(ctx, request, speed);
  const CsrAdjacency* csr = network_->csr();
  if (runtime_.flat_adjacency && csr != nullptr) {
    FlatAdjacency adj{csr};
    if (runtime_.prefetch) {
      SequentialLoop<true>(ctx, request, speed, adj, metrics);
    } else {
      SequentialLoop<false>(ctx, request, speed, adj, metrics);
    }
  } else {
    LegacyAdjacency adj{network_};
    if (runtime_.prefetch) {
      SequentialLoop<true>(ctx, request, speed, adj, metrics);
    } else {
      SequentialLoop<false>(ctx, request, speed, adj, metrics);
    }
  }
}

void FrontierEngine::RunTimedParallel(ExpansionContext& ctx,
                                      const TimedRequest& request,
                                      const SpeedFn& speed,
                                      SearchMetrics* metrics) const {
  SeedSources(ctx, request, speed);
  const CsrAdjacency* csr = network_->csr();
  const CsrAdjacency* locality =
      runtime_.locality_chunking ? csr : nullptr;
  if (runtime_.flat_adjacency && csr != nullptr) {
    FlatAdjacency adj{csr};
    if (runtime_.prefetch) {
      ParallelLoop<true>(ctx, request, speed, adj, runtime_, locality,
                         metrics);
    } else {
      ParallelLoop<false>(ctx, request, speed, adj, runtime_, locality,
                          metrics);
    }
  } else {
    LegacyAdjacency adj{network_};
    if (runtime_.prefetch) {
      ParallelLoop<true>(ctx, request, speed, adj, runtime_, locality,
                         metrics);
    } else {
      ParallelLoop<false>(ctx, request, speed, adj, runtime_, locality,
                          metrics);
    }
  }
}

std::vector<ExpansionHit> FrontierEngine::HitsByArrival(
    const ExpansionContext& ctx) const {
  std::vector<ExpansionHit> hits;
  hits.reserve(ctx.reached().size());
  for (SegmentId s : ctx.reached()) {
    double label = ctx.Label(s);
    if (label < kUnreachedLabel) hits.push_back({s, label});
  }
  std::sort(hits.begin(), hits.end(),
            [](const ExpansionHit& a, const ExpansionHit& b) {
              if (a.arrival_seconds != b.arrival_seconds) {
                return a.arrival_seconds < b.arrival_seconds;
              }
              return a.segment < b.segment;
            });
  return hits;
}

std::vector<SegmentId> FrontierEngine::ReachedSorted(
    const ExpansionContext& ctx) const {
  std::vector<SegmentId> out;
  out.reserve(ctx.reached().size());
  for (SegmentId s : ctx.reached()) {
    if (ctx.Label(s) < kUnreachedLabel) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SegmentId> FrontierEngine::RunCone(
    ExpansionContext& ctx, const ConeRequest& request, const ListFn& lists,
    const ConeFilter& filter, std::vector<SegmentId>* last_frontier_out,
    SearchMetrics* metrics) const {
  obs::TraceSpan span("cone_expand", request.starts.size());
  const size_t n = network_->NumSegments();
  ctx.Begin(n);
  const size_t workers =
      runtime_.parallel() ? static_cast<size_t>(runtime_.workers) : 1;
  ctx.EnsureWorkerBuffers(workers);
  const CsrAdjacency* locality =
      runtime_.locality_chunking ? network_->csr() : nullptr;
  std::vector<SegmentId>& members = ctx.members();
  for (SegmentId s : request.starts) {
    if (s < n && !ctx.Seen(s)) {
      ctx.SetOrigin(s, s);  // membership = Seen; origin = owning start
      members.push_back(s);
    }
  }

  uint64_t expanded = 0, rounds = 0;
  size_t last_begin = 0;
  size_t last_end = members.size();
  std::vector<SegmentId>& frontier = ctx.frontier();
  const int hops = NumHops(request.duration_seconds, request.delta_t_seconds);

  // Gathers discoveries for permuted frontier slots [begin, end): for each
  // member, every list entry not already in the cone (pre-step state) that
  // survives the filter. Read-only against ctx; the commit rechecks
  // membership in sequential discovery order, so intra-step duplicates
  // drop exactly as they would in a fully sequential walk.
  int64_t tod = 0;
  auto gather = [&](const uint32_t* perm, size_t begin, size_t end,
                    std::vector<FrontierCandidate>& out) {
    out.clear();
    for (size_t j = begin; j < end; ++j) {
      const uint32_t i =
          perm != nullptr ? perm[j] : static_cast<uint32_t>(j);
      SegmentId r = frontier[i];
      const SegmentId owner = ctx.Origin(r);
      for (SegmentId found : lists(r, tod)) {
        if (ctx.Seen(found)) continue;
        if (filter && !filter(owner, found)) continue;
        out.push_back(
            FrontierCandidate{found, owner, kInvalidSegment, i, 0.0});
      }
    }
  };

  for (int step = 0; step < hops; ++step) {
    tod = (request.start_tod +
           static_cast<int64_t>(step) * request.delta_t_seconds) %
          kSecondsPerDay;
    const int32_t pslot =
        static_cast<int32_t>(tod / request.profile_slot_seconds);
    const size_t snapshot = members.size();
    frontier.clear();
    for (size_t i = 0; i < snapshot; ++i) {
      // Members are expanded once per profile slot; Mark remembers the
      // slot a member last expanded under.
      SegmentId r = members[i];
      if (ctx.Mark(r) == pslot) continue;
      ctx.SetMark(r, pslot);
      frontier.push_back(r);
    }
    if (frontier.empty()) continue;
    expanded += frontier.size();
    obs::TraceSpan hop_span("cone_hop", frontier.size());

    size_t chunks = 1;
    bool permuted = false;
    if (frontier.size() >= runtime_.min_parallel_frontier && workers > 1) {
      ++rounds;
      chunks = std::min(workers, frontier.size());
      const uint32_t* perm = nullptr;
      if (locality != nullptr) {
        BuildLocalityPermutation(*locality, frontier, ctx.permutation());
        perm = ctx.permutation().data();
        permuted = true;
      }
      const size_t per = (frontier.size() + chunks - 1) / chunks;
      std::vector<std::future<int>> joins;
      joins.reserve(chunks - 1);
      for (size_t c = 1; c < chunks; ++c) {
        size_t begin = c * per;
        size_t end = std::min(begin + per, frontier.size());
        joins.push_back(runtime_.pool->Submit(
            [&gather, &ctx, perm, begin, end, c]() -> int {
              gather(perm, begin, end, ctx.worker_buffer(c));
              return 0;
            }));
      }
      gather(perm, 0, std::min(per, frontier.size()), ctx.worker_buffer(0));
      for (auto& j : joins) j.get();
    } else {
      gather(nullptr, 0, frontier.size(), ctx.worker_buffer(0));
    }

    // Ordered commit: (frontier position, list position) is exactly the
    // sequential discovery order, so the member sequence is identical.
    auto commit_one = [&](const FrontierCandidate& cand) {
      if (ctx.Seen(cand.target)) return;  // same-step duplicate
      ctx.SetOrigin(cand.target, cand.aux);
      members.push_back(cand.target);
    };
    if (permuted) {
      std::vector<FrontierCandidate>& merged = ctx.commit_buffer();
      merged.clear();
      for (size_t c = 0; c < chunks; ++c) {
        const std::vector<FrontierCandidate>& b = ctx.worker_buffer(c);
        merged.insert(merged.end(), b.begin(), b.end());
      }
      SortCandidatesByPos(merged);
      for (const FrontierCandidate& cand : merged) commit_one(cand);
    } else {
      for (size_t c = 0; c < chunks; ++c) {
        for (const FrontierCandidate& cand : ctx.worker_buffer(c)) {
          commit_one(cand);
        }
      }
    }
    if (members.size() > snapshot) {
      last_begin = snapshot;
      last_end = members.size();
    }
  }

  if (last_frontier_out != nullptr) {
    last_frontier_out->assign(members.begin() + last_begin,
                              members.begin() + last_end);
    std::sort(last_frontier_out->begin(), last_frontier_out->end());
  }
  if (metrics != nullptr) {
    metrics->segments_expanded += expanded;
    metrics->parallel_rounds += rounds;
  }
  RecordSearchCounters(0, expanded, rounds);
  std::vector<SegmentId> out(members.begin(), members.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace strr
