#include "search/frontier_engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
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

/// Folds one search's per-call tallies into the process counters, once
/// per search, so the hot loops never touch the registry.
void RecordSearchCounters(uint64_t pops, uint64_t expanded) {
  if (pops != 0) HeapPopsCounter().Add(pops);
  if (expanded != 0) SegmentsExpandedCounter().Add(expanded);
}

/// Number of Δt hops for duration L: k with kΔt <= L < (k+1)Δt, at least 1.
int NumHops(int64_t duration, int64_t delta_t) {
  int k = static_cast<int>(duration / delta_t);
  return k < 1 ? 1 : k;
}

/// Seeds sources into ctx with the canonical relax rule; pushes heap
/// entries for reached sources.
void SeedSources(ExpansionContext& ctx, const RoadNetwork& network,
                 const FrontierEngine::TimedRequest& request,
                 const SpeedFn& speed) {
  const size_t n = network.NumSegments();
  for (SegmentId src : request.sources) {
    if (src >= n) continue;
    double sp = speed(src);
    if (sp <= 0.0) continue;
    double t = network.segment(src).TravelTimeSeconds(sp);
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

}  // namespace

void FrontierEngine::RunTimed(ExpansionContext& ctx,
                              const TimedRequest& request, const SpeedFn& speed,
                              SearchMetrics* metrics) const {
  obs::TraceSpan span("frontier_expand", request.sources.size());
  ctx.Begin(network_->NumSegments());
  SeedSources(ctx, *network_, request, speed);
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
    for (SegmentId next : network_->OutgoingOf(s)) {
      double sp = speed(next);
      if (sp <= 0.0) continue;
      double t2 = t + network_->segment(next).TravelTimeSeconds(sp);
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
  RecordSearchCounters(pops, expanded);
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
  std::vector<SegmentId>& members = ctx.members();
  for (SegmentId s : request.starts) {
    if (s < n && !ctx.Seen(s)) {
      ctx.SetOrigin(s, s);  // membership = Seen; origin = owning start
      members.push_back(s);
    }
  }

  uint64_t expanded = 0;
  size_t last_begin = 0;
  size_t last_end = members.size();
  std::vector<SegmentId>& frontier = ctx.frontier();
  const int hops = NumHops(request.duration_seconds, request.delta_t_seconds);

  for (int step = 0; step < hops; ++step) {
    const int64_t tod = (request.start_tod +
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

    // Members found in this step join `members` but not `frontier`, so
    // they first expand in step + 1 (level-synchronous hop walk).
    for (SegmentId r : frontier) {
      const SegmentId owner = ctx.Origin(r);
      for (SegmentId found : lists(r, tod)) {
        if (ctx.Seen(found)) continue;
        if (filter && !filter(owner, found)) continue;
        ctx.SetOrigin(found, owner);
        members.push_back(found);
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
  if (metrics != nullptr) metrics->segments_expanded += expanded;
  RecordSearchCounters(0, expanded);
  std::vector<SegmentId> out(members.begin(), members.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace strr
