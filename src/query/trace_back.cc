#include "query/trace_back.h"

#include <algorithm>
#include <future>
#include <span>

#include "roadnet/csr_graph.h"

namespace strr {

namespace {
// Rings smaller than this verify inline (fan-out overhead dominates).
constexpr size_t kMinParallelRing = 16;
}  // namespace

StatusOr<TbsOutcome> TraceBackSearch(const RoadNetwork& network,
                                     const BoundingRegions& regions,
                                     double prob_threshold,
                                     ReachabilityProbability& prob_oracle,
                                     const TraceBackOptions& options) {
  if (prob_threshold <= 0.0 || prob_threshold > 1.0) {
    return Status::InvalidArgument("TBS: Prob must be in (0, 1]");
  }
  const size_t n = network.NumSegments();
  std::vector<uint8_t> in_max(n, 0), in_min(n, 0), visited(n, 0), failed(n, 0);
  for (SegmentId s : regions.max_region) in_max[s] = 1;
  for (SegmentId s : regions.min_region) in_min[s] = 1;

  // Seed ring 0 with the outer boundary; when the max region has no
  // outside neighbours at all (covers a whole connected component), verify
  // the entire max-minus-min shell instead.
  std::vector<SegmentId> ring;
  if (!regions.boundary.empty()) {
    for (SegmentId s : regions.boundary) {
      if (!visited[s]) {
        visited[s] = 1;
        ring.push_back(s);
      }
    }
  } else {
    for (SegmentId s : regions.max_region) {
      if (!in_min[s] && !visited[s]) {
        visited[s] = 1;
        ring.push_back(s);
      }
    }
  }
  if (ring.empty()) {
    // Fully degenerate: the minimum bounding region swallowed the whole
    // maximum region (tiny networks / generous speed floors). Trusting it
    // blindly would fabricate reachability, so verify everything instead.
    for (SegmentId s : regions.max_region) {
      if (!visited[s]) {
        visited[s] = 1;
        ring.push_back(s);
      }
    }
  }

  const CsrAdjacency* csr =
      options.flat_adjacency ? network.csr() : nullptr;
  auto neighbors_of = [&](SegmentId r) -> std::span<const SegmentId> {
    if (csr != nullptr) return csr->Neighbors(r);
    const std::vector<SegmentId>& nb = network.NeighborsOf(r);
    return {nb.data(), nb.size()};
  };

  // The FIFO queue of the sequential formulation is processed strictly
  // ring by ring (ring k+1 is produced entirely by ring k), so verifying a
  // whole ring concurrently and committing in ring order replays the
  // sequential order exactly. Probability() is pure per segment and
  // thread-safe (see ReachabilityProbability).
  TbsOutcome out;
  std::vector<SegmentId> next_ring;
  std::vector<double> probs;
  while (!ring.empty()) {
    probs.assign(ring.size(), 0.0);
    const bool fan =
        options.parallel() && ring.size() >= kMinParallelRing;
    if (fan) {
      const size_t chunks =
          std::min(static_cast<size_t>(options.workers), ring.size());
      const size_t per = (ring.size() + chunks - 1) / chunks;
      auto verify_range = [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          STRR_ASSIGN_OR_RETURN(double p, prob_oracle.Probability(ring[i]));
          probs[i] = p;
        }
        return Status::OK();
      };
      std::vector<std::future<Status>> joins;
      joins.reserve(chunks - 1);
      for (size_t c = 1; c < chunks; ++c) {
        size_t begin = c * per;
        size_t end = std::min(begin + per, ring.size());
        joins.push_back(options.pool->Submit(
            [&verify_range, begin, end]() -> Status {
              return verify_range(begin, end);
            }));
      }
      Status st = verify_range(0, std::min(per, ring.size()));
      // Join every worker before surfacing an error (no dangling refs).
      for (auto& j : joins) {
        Status ws = j.get();
        if (st.ok() && !ws.ok()) st = ws;
      }
      if (!st.ok()) return st;
    } else {
      for (size_t i = 0; i < ring.size(); ++i) {
        STRR_ASSIGN_OR_RETURN(double p, prob_oracle.Probability(ring[i]));
        probs[i] = p;
      }
    }

    // Ring-order commit: counters, failure marks, and the inward expansion
    // all happen in the sequential queue order.
    next_ring.clear();
    for (size_t i = 0; i < ring.size(); ++i) {
      SegmentId r = ring[i];
      ++out.segments_verified;
      if (probs[i] >= prob_threshold) continue;  // qualifies: stop tracing
      failed[r] = 1;
      ++out.segments_failed;
      // Trace back: enqueue unvisited neighbours inside the max region but
      // outside the minimum bounding region (Algorithm 2, line 9).
      for (SegmentId nb : neighbors_of(r)) {
        if (!in_max[nb] || in_min[nb] || visited[nb]) continue;
        visited[nb] = 1;
        next_ring.push_back(nb);
      }
    }
    ring.swap(next_ring);
  }

  out.region.reserve(regions.max_region.size());
  for (SegmentId s : regions.max_region) {
    if (!failed[s]) out.region.push_back(s);
  }
  return out;
}

}  // namespace strr
