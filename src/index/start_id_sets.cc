#include "index/start_id_sets.h"

namespace strr {

StartIdSets::StartIdSets(const std::vector<std::vector<TrajectoryId>>& days)
    : days_(days.size()) {
  for (size_t d = 0; d < days.size(); ++d) {
    const std::vector<TrajectoryId>& ids = days[d];
    if (ids.empty()) continue;
    Day& day = days_[d];
    day.min = ids.front();
    day.max = ids.back();
    day.count = static_cast<uint32_t>(ids.size());
    ++active_days_;
    const uint64_t words = (uint64_t{day.max} - day.min) / 64 + 1;
    day.bitmap = words <= kMaxBitmapWords;
    if (day.bitmap) {
      day.offset = words_.size();
      words_.resize(words_.size() + words);  // zeroed
      uint64_t* bits = words_.data() + day.offset;
      for (TrajectoryId id : ids) {
        const uint32_t off = id - day.min;
        bits[off >> 6] |= uint64_t{1} << (off & 63);
      }
    } else {
      day.offset = ids_.size();
      ids_.insert(ids_.end(), ids.begin(), ids.end());
    }
  }
}

}  // namespace strr
