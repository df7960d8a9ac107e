// TrajectoryStore: the cleaned (map-matched) trajectory database.
//
// Holds every MatchedTrajectory grouped by day and exposes the iteration
// and summary statistics the index builders and the Table 4.1 bench need.
#ifndef STRR_TRAJ_TRAJECTORY_STORE_H_
#define STRR_TRAJ_TRAJECTORY_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "traj/trajectory.h"
#include "util/result.h"
#include "util/status.h"

namespace strr {

/// Dataset-level summary (the paper's Table 4.1 rows).
struct DatasetStats {
  int32_t num_days = 0;
  uint32_t num_taxis = 0;
  uint64_t num_trajectories = 0;
  uint64_t num_samples = 0;   ///< matched (segment, time) observations
  double mean_speed_mps = 0.0;
};

/// In-memory matched-trajectory database.
class TrajectoryStore {
 public:
  explicit TrajectoryStore(int32_t num_days) : by_day_(num_days) {}

  /// Adds a trajectory; its day must be within [0, num_days) and no sample
  /// may be timed before day 0 (Timestamp counts from its midnight).
  Status Add(MatchedTrajectory trajectory);

  int32_t num_days() const { return static_cast<int32_t>(by_day_.size()); }

  const std::vector<MatchedTrajectory>& TrajectoriesOnDay(DayIndex day) const {
    return by_day_[day];
  }

  /// Invokes `fn` for every trajectory, day by day.
  void ForEach(const std::function<void(const MatchedTrajectory&)>& fn) const;

  DatasetStats ComputeStats() const;

  uint64_t NumTrajectories() const;

 private:
  std::vector<std::vector<MatchedTrajectory>> by_day_;
};

}  // namespace strr

#endif  // STRR_TRAJ_TRAJECTORY_STORE_H_
