// Query and result types for spatio-temporal reachability queries.
#ifndef STRR_QUERY_QUERY_H_
#define STRR_QUERY_QUERY_H_

#include <cstdint>
#include <vector>

#include "geo/point.h"
#include "roadnet/segment.h"
#include "storage/page.h"
#include "util/time_util.h"

namespace strr {

/// Identity of the client (tenant) a query is served on behalf of. The
/// multi-tenant front door (core/tenant_registry.h, core/wfq_admission.h)
/// keys quotas, weighted fair queueing and per-tenant counters on it; a
/// single-tenant deployment leaves every query on kDefaultTenant and sees
/// no behavioral difference.
using TenantId = uint32_t;
inline constexpr TenantId kDefaultTenant = 0;

/// Single-location ST reachability query q = (S, T, L, Prob).
struct SQuery {
  XyPoint location;        ///< S: query location (projected)
  int64_t start_tod = 0;   ///< T: start time of day, seconds in [0, 86400)
  int64_t duration = 600;  ///< L: query duration, seconds
  double prob = 0.2;       ///< Prob in (0, 1]
};

/// Multi-location ST reachability query q = ({s1..sn}, T, L, Prob).
struct MQuery {
  std::vector<XyPoint> locations;
  int64_t start_tod = 0;
  int64_t duration = 600;
  double prob = 0.2;
};

/// Work/IO accounting for one query execution.
struct QueryStats {
  double wall_ms = 0.0;            ///< end-to-end processing time
  /// Summed wall time of the sub-queries a composite strategy ran (the
  /// repeated-s-query baseline runs one per location). Equals wall_ms for
  /// single-leg queries; under parallel legs it exceeds wall_ms — the gap
  /// is the intra-query speedup.
  double sum_wall_ms = 0.0;
  uint64_t time_lists_read = 0;    ///< ST-Index time-list fetches
  uint64_t segments_verified = 0;  ///< probability computations performed
  // --- Search-interior work (src/search/ FrontierEngine; composite
  // strategies sum their legs) ------------------------------------------------
  /// Frontier members expanded across this query's bounding-region
  /// searches (cone hops + nearest-start maps).
  uint64_t segments_expanded = 0;
  /// d-ary heap pops in the timed (Dijkstra) expansions.
  uint64_t heap_pops = 0;
  /// True when the result was served from the executor's ResultCache. The
  /// remaining stats then describe the execution that originally produced
  /// the entry, not the (near-free) cache lookup.
  bool cache_hit = false;
  /// Version of the live index snapshot this result was computed against
  /// (see live/live_profile_manager.h). 0 when live ingestion is off —
  /// results then come from the engine-built (static) indexes. Every read
  /// of one query sees exactly this version: snapshots are immutable and
  /// pinned for the query's duration.
  uint64_t snapshot_version = 0;
  /// Storage-layer traffic attributed to this query. Executor-run queries
  /// count through a per-thread ScopedIoCounters in the BufferPool read
  /// path, so the numbers are exact even under concurrent execution
  /// (sequentially they equal the engine-global counter delta). Queries
  /// shed by admission control produce no result and hence no stats; shed
  /// counts live in QueryExecutor::front_door_stats().
  StorageStats io;
  size_t max_region_segments = 0;  ///< |maximum bounding region|
  size_t min_region_segments = 0;  ///< |minimum bounding region|
  size_t boundary_segments = 0;    ///< |outer boundary| seeded into TBS
};

/// A Prob-reachable region: the answer to a query.
struct RegionResult {
  std::vector<SegmentId> segments;  ///< sorted segment ids in the region
  double total_length_m = 0.0;      ///< summed road length (Fig 4.x metric)
  QueryStats stats;
};

}  // namespace strr

#endif  // STRR_QUERY_QUERY_H_
