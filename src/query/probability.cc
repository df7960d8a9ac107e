#include "query/probability.h"

#include <algorithm>

namespace strr {

StatusOr<ReachabilityProbability> ReachabilityProbability::Create(
    const StIndex& st_index, const std::vector<SegmentId>& starts,
    int64_t start_tod, int64_t window_seconds, int64_t duration_seconds) {
  if (starts.empty()) {
    return Status::InvalidArgument("probability: no start segments");
  }
  if (window_seconds <= 0 || duration_seconds <= 0) {
    return Status::InvalidArgument("probability: window/duration must be > 0");
  }
  const std::vector<SlotId> duration_slots =
      st_index.SlotsCovering(start_tod, start_tod + duration_seconds);
  ReachabilityProbability p(
      st_index, duration_slots.empty()
                    ? st_index.TimeListWindow(0, -1)
                    : st_index.TimeListWindow(duration_slots.front(),
                                              duration_slots.back()));

  // Union the start segments' trajectory ids per day over the start window.
  std::vector<std::vector<TrajectoryId>> start_ids(
      static_cast<size_t>(st_index.num_days()));
  std::vector<SlotId> start_slots =
      st_index.SlotsCovering(start_tod, start_tod + window_seconds);
  for (SegmentId s : starts) {
    for (SlotId slot : start_slots) {
      STRR_ASSIGN_OR_RETURN(TimeList lists, st_index.ReadTimeList(s, slot));
      ++p.time_lists_read_;
      for (size_t d = 0; d < lists.size() && d < start_ids.size(); ++d) {
        if (lists[d].empty()) continue;
        auto& day = start_ids[d];
        day.insert(day.end(), lists[d].begin(), lists[d].end());
      }
    }
  }
  for (auto& day : start_ids) {
    std::sort(day.begin(), day.end());
    day.erase(std::unique(day.begin(), day.end()), day.end());
  }
  p.start_sets_ = StartIdSets(start_ids);
  return p;
}

StatusOr<int> ReachabilityProbability::MarkDays(SegmentId r, int stop_at) {
  // Test r's per-day ids over the duration slots against the start sets,
  // straight from the posting bytes. A day counts once some common id
  // appears. The marks are per thread, so a worker reuses one buffer
  // across queries.
  thread_local std::vector<uint8_t> day_hit;
  day_hit.assign(static_cast<size_t>(st_index_->num_days()), 0);
  STRR_ASSIGN_OR_RETURN(StIndex::SegmentMarks marks,
                        st_index_->MarkDaysIntersecting(
                            r, &window_, start_sets_, &day_hit, stop_at));
  time_lists_read_ += marks.lists_read;
  return marks.days_marked;
}

StatusOr<double> ReachabilityProbability::Probability(SegmentId r) {
  ++verifications_;
  const int num_days = st_index_->num_days();
  if (num_days == 0) return 0.0;
  STRR_ASSIGN_OR_RETURN(int marked, MarkDays(r, start_sets_.active_days()));
  return static_cast<double>(marked) / static_cast<double>(num_days);
}

StatusOr<bool> ReachabilityProbability::Reaches(SegmentId r, double prob) {
  ++verifications_;
  const int num_days = st_index_->num_days();
  if (num_days == 0) return 0.0 >= prob;  // Probability(r) is 0
  // need: the smallest k <= m with k / m >= prob, the very comparison made
  // on Probability(r); m + 1 when there is none (prob > 1 or NaN).
  int need = 0;
  while (need <= num_days &&
         !(static_cast<double>(need) / static_cast<double>(num_days) >=
           prob)) {
    ++need;
  }
  if (need > start_sets_.active_days()) return false;
  STRR_ASSIGN_OR_RETURN(int marked, MarkDays(r, need));
  return marked >= need;
}

}  // namespace strr
