#include "traj/trajectory_store.h"

namespace strr {

Status TrajectoryStore::Add(MatchedTrajectory trajectory) {
  if (trajectory.day < 0 ||
      trajectory.day >= static_cast<DayIndex>(by_day_.size())) {
    return Status::InvalidArgument(
        "trajectory day " + std::to_string(trajectory.day) +
        " outside dataset range [0, " + std::to_string(by_day_.size()) + ")");
  }
  for (const MatchedSample& s : trajectory.samples) {
    if (s.timestamp < 0) {
      return Status::InvalidArgument(
          "trajectory " + std::to_string(trajectory.id) + " has a sample at " +
          std::to_string(s.timestamp) + " s, before day 0");
    }
  }
  by_day_[trajectory.day].push_back(std::move(trajectory));
  return Status::OK();
}

void TrajectoryStore::ForEach(
    const std::function<void(const MatchedTrajectory&)>& fn) const {
  for (const auto& day : by_day_) {
    for (const MatchedTrajectory& t : day) fn(t);
  }
}

uint64_t TrajectoryStore::NumTrajectories() const {
  uint64_t n = 0;
  for (const auto& day : by_day_) n += day.size();
  return n;
}

DatasetStats TrajectoryStore::ComputeStats() const {
  DatasetStats stats;
  stats.num_days = num_days();
  uint64_t speed_samples = 0;
  double speed_sum = 0.0;
  uint32_t max_taxi = 0;
  bool any = false;
  for (const auto& day : by_day_) {
    for (const MatchedTrajectory& t : day) {
      ++stats.num_trajectories;
      stats.num_samples += t.samples.size();
      any = true;
      if (t.taxi > max_taxi) max_taxi = t.taxi;
      for (const MatchedSample& s : t.samples) {
        speed_sum += s.speed_mps;
        ++speed_samples;
      }
    }
  }
  stats.num_taxis = any ? max_taxi + 1 : 0;
  stats.mean_speed_mps = speed_samples > 0 ? speed_sum / speed_samples : 0.0;
  return stats;
}

}  // namespace strr
