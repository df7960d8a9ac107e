#include "query/trace_back.h"

namespace strr {

StatusOr<TbsOutcome> TraceBackSearch(const RoadNetwork& network,
                                     const BoundingRegions& regions,
                                     double prob_threshold,
                                     ReachabilityProbability& prob_oracle) {
  if (!(prob_threshold > 0.0 && prob_threshold <= 1.0)) {  // NaN fails too
    return Status::InvalidArgument("TBS: Prob must be in (0, 1]");
  }
  const size_t n = network.NumSegments();
  std::vector<uint8_t> in_max(n, 0), in_min(n, 0), visited(n, 0), failed(n, 0);
  for (SegmentId s : regions.max_region) in_max[s] = 1;
  for (SegmentId s : regions.min_region) in_min[s] = 1;

  // Seed the queue with the outer boundary; when the max region has no
  // outside neighbours at all (covers a whole connected component), verify
  // the entire max-minus-min shell instead.
  std::vector<SegmentId> queue;
  if (!regions.boundary.empty()) {
    for (SegmentId s : regions.boundary) {
      if (!visited[s]) {
        visited[s] = 1;
        queue.push_back(s);
      }
    }
  } else {
    for (SegmentId s : regions.max_region) {
      if (!in_min[s] && !visited[s]) {
        visited[s] = 1;
        queue.push_back(s);
      }
    }
  }
  if (queue.empty()) {
    // Fully degenerate: the minimum bounding region swallowed the whole
    // maximum region (tiny networks / generous speed floors). Trusting it
    // blindly would fabricate reachability, so verify everything instead.
    for (SegmentId s : regions.max_region) {
      if (!visited[s]) {
        visited[s] = 1;
        queue.push_back(s);
      }
    }
  }

  // FIFO queue of Algorithm 2 (a vector read from the front; every segment
  // enters at most once, so it never holds more than the max region).
  TbsOutcome out;
  for (size_t head = 0; head < queue.size(); ++head) {
    SegmentId r = queue[head];
    STRR_ASSIGN_OR_RETURN(bool reaches,
                          prob_oracle.Reaches(r, prob_threshold));
    ++out.segments_verified;
    if (reaches) continue;  // qualifies: stop tracing
    failed[r] = 1;
    ++out.segments_failed;
    // Trace back: enqueue unvisited neighbours inside the max region but
    // outside the minimum bounding region (Algorithm 2, line 9).
    for (SegmentId nb : network.NeighborsOf(r)) {
      if (!in_max[nb] || in_min[nb] || visited[nb]) continue;
      visited[nb] = 1;
      queue.push_back(nb);
    }
  }

  out.region.reserve(regions.max_region.size());
  for (SegmentId s : regions.max_region) {
    if (!failed[s]) out.region.push_back(s);
  }
  return out;
}

}  // namespace strr
