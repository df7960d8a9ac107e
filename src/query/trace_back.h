// Trace Back Search (TBS) — Algorithm 2 of the paper.
//
// Given the maximum and minimum bounding regions of a query, TBS finds the
// exact Prob-reachable region by verifying segments *from the outside in*:
// it seeds a work queue with the outer boundary of the maximum region,
// checks each segment's reachable probability against the ST-Index time
// lists, and expands inward through road-network neighbours only where the
// probability falls short. Segments enclosed by the qualifying ring —
// including the whole minimum bounding region — are accepted without
// verification; that interior skip is where the 50–90% I/O saving over
// exhaustive search comes from (DESIGN.md documents the semantics).
//
// Each verification asks only for the segment's verdict
// (ReachabilityProbability::Reaches): its time-list walk stops once enough
// days are marked to meet Prob, and makes no read at all when the start
// has traffic on too few days for Prob to be met.
//
// A visited set guarantees each segment is examined at most once even when
// multiple inward paths reach it (the paper's r* example in Fig. 3.5).
//
// The walk is sequential, on the calling thread: its probability checks
// are the ST-Index reads that dominate a query, and the executor gets its
// parallelism from running queries side by side.
#ifndef STRR_QUERY_TRACE_BACK_H_
#define STRR_QUERY_TRACE_BACK_H_

#include <vector>

#include "query/bounding_region.h"
#include "query/probability.h"
#include "query/query.h"
#include "util/result.h"

namespace strr {

/// TBS output.
struct TbsOutcome {
  /// The Prob-reachable region: max_region minus every verified-failing
  /// segment (sorted).
  std::vector<SegmentId> region;
  uint64_t segments_verified = 0;
  uint64_t segments_failed = 0;
};

/// Runs trace back search. `prob_oracle` must have been created for the
/// same query (same starts / T / L).
StatusOr<TbsOutcome> TraceBackSearch(const RoadNetwork& network,
                                     const BoundingRegions& regions,
                                     double prob_threshold,
                                     ReachabilityProbability& prob_oracle);

}  // namespace strr

#endif  // STRR_QUERY_TRACE_BACK_H_
