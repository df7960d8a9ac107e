// StartIdSets: a query's start trajectory ids as one membership set per
// day, the right-hand side of Eq. 3.1's intersection test.
//
// A verification decodes a candidate's time lists id by id in increasing
// order and asks, per day, whether the id also left the start. Day d's set
// is a bitmap over [min, max] of its start ids, so that question is one bit
// test. Ids are unique dataset-wide, so a day's range can be far wider than
// its id count; a day whose bitmap would pass kMaxBitmapWords keeps its
// sorted ids instead and answers with a galloping search forward from a
// cursor, since the ids it is asked about only grow within a list.
#ifndef STRR_INDEX_START_ID_SETS_H_
#define STRR_INDEX_START_ID_SETS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "traj/trajectory.h"

namespace strr {

class StartIdSets {
 public:
  /// A day's bitmap may span at most this many 64-bit words (64 KiB, about
  /// 524k ids of range); a wider day falls back to its sorted ids.
  static constexpr size_t kMaxBitmapWords = 8192;

  StartIdSets() = default;
  /// One set per entry of `days`; each must be sorted and duplicate-free.
  explicit StartIdSets(const std::vector<std::vector<TrajectoryId>>& days);

  size_t num_days() const { return days_.size(); }
  bool empty(size_t day) const { return days_[day].count == 0; }
  /// True when day `day` is a bitmap, false when it fell back to sorted ids
  /// (or is empty).
  bool is_bitmap(size_t day) const { return days_[day].bitmap; }
  /// Number of days with at least one id.
  int active_days() const { return active_days_; }
  /// Heap bytes the sets hold (bitmap words and fallback ids).
  size_t memory_bytes() const {
    return words_.size() * sizeof(uint64_t) +
           ids_.size() * sizeof(TrajectoryId);
  }

  /// Answer to "is this id in the day's set?" for ids asked in increasing
  /// order.
  enum class Membership : uint8_t {
    kAbsent,   ///< not in the set; a larger id may be
    kPresent,  ///< in the set
    kPastMax,  ///< larger than every id of the day; so is every later one
  };

  /// Tests one day's ids in non-decreasing order, as a time list decodes
  /// them. Cheap to copy; valid while the sets live.
  class DayProbe {
   public:
    Membership Test(TrajectoryId id) {
      if (id < min_) return Membership::kAbsent;
      if (id > max_) return Membership::kPastMax;
      if (bits_ != nullptr) {
        const uint32_t off = id - min_;
        return (bits_[off >> 6] >> (off & 63)) & 1 ? Membership::kPresent
                                                    : Membership::kAbsent;
      }
      return Gallop(id) ? Membership::kPresent : Membership::kAbsent;
    }

    /// Fallback days: index of the first sorted id not below the last id
    /// tested (0 before any test). Always 0 for a bitmap day.
    size_t cursor() const { return next_ == nullptr ? 0 : next_ - first_; }

   private:
    friend class StartIdSets;

    /// Advances next_ to the first id >= `id` and reports whether it is
    /// `id`. Requires id <= max_, so that id exists at or after next_.
    bool Gallop(TrajectoryId id) {
      if (*next_ >= id) return *next_ == id;
      // next_[lo] < id; double hi until next_[hi] >= id or it runs out.
      const size_t n = static_cast<size_t>(end_ - next_);
      size_t lo = 0, hi = 1;
      while (hi < n && next_[hi] < id) {
        lo = hi;
        hi *= 2;
      }
      next_ = std::lower_bound(next_ + lo + 1, next_ + std::min(hi, n), id);
      return *next_ == id;
    }

    // An empty day's probe: the one-id range {0} with its bit clear.
    TrajectoryId min_ = 0, max_ = 0;
    const uint64_t* bits_ = &kNoBits;
    const TrajectoryId* first_ = nullptr;
    const TrajectoryId* next_ = nullptr;
    const TrajectoryId* end_ = nullptr;
  };

  /// A fresh probe over day `day`'s set. An empty day holds no id: its
  /// probe finds 0 absent and every larger id past its max.
  DayProbe Probe(size_t day) const {
    const Day& d = days_[day];
    DayProbe p;
    if (d.count == 0) return p;
    p.min_ = d.min;
    p.max_ = d.max;
    if (d.bitmap) {
      p.bits_ = words_.data() + d.offset;
    } else {
      p.bits_ = nullptr;
      p.first_ = p.next_ = ids_.data() + d.offset;
      p.end_ = p.first_ + d.count;
    }
    return p;
  }

 private:
  struct Day {
    TrajectoryId min = 0, max = 0;
    uint32_t count = 0;   ///< ids in the set
    size_t offset = 0;    ///< into words_ (bitmap) or ids_ (fallback)
    bool bitmap = false;
  };

  static constexpr uint64_t kNoBits = 0;

  std::vector<Day> days_;
  std::vector<uint64_t> words_;
  std::vector<TrajectoryId> ids_;
  int active_days_ = 0;
};

}  // namespace strr

#endif  // STRR_INDEX_START_ID_SETS_H_
