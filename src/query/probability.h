// ReachabilityProbability: Eq. 3.1 of the paper.
//
//   probability(r, r0) = m* / m,
//
// where m* is the number of days d with Tr(r0, [T, T+Δt), d) ∩
// Tr(r, [T, T+L], d) ≠ ∅: some trajectory passed the start segment right
// after T *and* passed r within the duration, on that day.
//
// One instance is built per query execution: it reads and caches the start
// segment's time lists once, then verifies candidates one by one, reading
// their time lists from the ST-Index (this is the disk I/O the SQMB/TBS
// machinery exists to minimize). The instance owns one ST-Index window over
// the duration slots [first, last], so the whole query's verifications
// request each page of that slot range once (up to the window's buffer
// cap). Create unions the start segments' ids per day once and keeps them
// as a StartIdSets, one membership set per day (a bitmap over the day's id
// range). Verifying a candidate is one StIndex::MarkDaysIntersecting call:
// it walks the candidate's lists over the duration slots in slot order
// through the window, tests each decoded id against its day's set with one
// bit test, without materialising a TimeList, and stops once the days it
// needs are marked. Probability(r) needs every day with start traffic (no
// other day can be marked), so its count is exact. Reaches(r, Prob) needs
// only the days that make probability >= Prob: it stops at that many, and
// reads nothing when the start has fewer active days than that. Absent
// (segment, slot) cells cost a directory probe and no I/O, so
// time_lists_read() counts present lists only.
// Multi-location queries pass several start segments; their per-day ID
// lists are unioned (reachable from ANY start).
#ifndef STRR_QUERY_PROBABILITY_H_
#define STRR_QUERY_PROBABILITY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "index/st_index.h"
#include "util/result.h"

namespace strr {

/// Per-query probability oracle.
class ReachabilityProbability {
 public:
  /// Prepares the start-side lists: trajectories leaving any of `starts`
  /// during [start_tod, start_tod + window). The paper uses window = Δt
  /// (one index slot).
  static StatusOr<ReachabilityProbability> Create(
      const StIndex& st_index, const std::vector<SegmentId>& starts,
      int64_t start_tod, int64_t window_seconds, int64_t duration_seconds);

  /// probability(r, starts) in [0, 1]; reads r's time lists through the
  /// query's window. Not thread-safe.
  StatusOr<double> Probability(SegmentId r);

  /// Probability(r) >= prob, decided with as few list reads as possible:
  /// the walk stops once the smallest day count k with k / m >= prob
  /// (m = days in the dataset) is marked, and reads nothing when the start
  /// is active on fewer than k days. Not thread-safe.
  StatusOr<bool> Reaches(SegmentId r, double prob);

  /// Number of candidate verifications performed so far.
  uint64_t verifications() const { return verifications_; }
  /// Number of time-list reads issued (start + candidates).
  uint64_t time_lists_read() const { return time_lists_read_; }

  /// True when no trajectory left the start segments in the window on any
  /// day (every probability will be 0).
  bool StartHasNoTraffic() const { return start_sets_.active_days() == 0; }

 private:
  ReachabilityProbability(const StIndex& st_index, PostingStore::Window window)
      : st_index_(&st_index), window_(std::move(window)) {}

  /// Marks the days r reaches, stopping once `stop_at` are marked;
  /// returns how many it marked.
  StatusOr<int> MarkDays(SegmentId r, int stop_at);

  const StIndex* st_index_;
  /// The query's window over the slots covering [T, T+L].
  PostingStore::Window window_;
  /// Day d's set holds the trajectory ids leaving the starts on day d.
  StartIdSets start_sets_;
  uint64_t verifications_ = 0;
  uint64_t time_lists_read_ = 0;
};

}  // namespace strr

#endif  // STRR_QUERY_PROBABILITY_H_
