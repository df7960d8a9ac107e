// ES: the exhaustive-search baseline the paper compares against (§4.2).
//
// ES answers an s-query with plain network expansion from the start
// segment — no Con-Index, no bounding regions. It expands the road network
// outward (Dijkstra over travel time at the historical maximum speeds, so
// its search cone covers everything any trajectory could have reached) and
// verifies *every* expanded segment against the ST-Index time lists. That
// includes the dense region near the start location, which SQMB+TBS skips;
// the resulting extra time-list I/O is exactly the paper's reported gap.
//
// Termination (under-specified in the thesis; see DESIGN.md): a branch
// stops expanding once the time budget L is exhausted; segments are
// collected when their verified probability meets Prob. Each segment gets
// the same verdict walk as TBS (ReachabilityProbability::Reaches), which
// stops reading once Prob is met, so the two read alike per segment.
#ifndef STRR_QUERY_ES_BASELINE_H_
#define STRR_QUERY_ES_BASELINE_H_

#include "index/speed_profile.h"
#include "index/st_index.h"
#include "query/query.h"
#include "util/result.h"

namespace strr {

/// Runs the exhaustive-search baseline for an s-query. `delta_t` sets the
/// start window [T, T+Δt) of Eq. 3.1 (same value the indexed path uses, so
/// results are comparable). Locates the start segment itself.
StatusOr<RegionResult> ExhaustiveSearch(const StIndex& st_index,
                                        const SpeedProfile& profile,
                                        const SQuery& query, int64_t delta_t);

/// Same, over an already-located start segment set (the QueryPlanner
/// resolves locations once at plan time; this overload skips the repeat
/// R-tree lookup). `starts` must be non-empty.
StatusOr<RegionResult> ExhaustiveSearch(const StIndex& st_index,
                                        const SpeedProfile& profile,
                                        const SQuery& query, int64_t delta_t,
                                        const std::vector<SegmentId>& starts);

}  // namespace strr

#endif  // STRR_QUERY_ES_BASELINE_H_
