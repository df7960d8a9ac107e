#include "index/speed_profile.h"

#include <algorithm>
#include <cmath>

namespace strr {

SpeedProfile::SpeedProfile(const RoadNetwork& network,
                           SpeedProfileOptions options)
    : network_(&network), options_(options) {
  num_slots_ = SlotsPerDay(options_.slot_seconds);
  cells_.assign(network.NumSegments() * static_cast<size_t>(num_slots_),
                Cell{});
  level_fallback_.assign(3 * static_cast<size_t>(num_slots_), Cell{});
}

StatusOr<SpeedProfile> SpeedProfile::Build(const RoadNetwork& network,
                                           const TrajectoryStore& store,
                                           const SpeedProfileOptions& options) {
  if (options.slot_seconds <= 0 || options.slot_seconds > kSecondsPerDay) {
    return Status::InvalidArgument("profile slot width out of range");
  }
  if (kSecondsPerDay % options.slot_seconds != 0) {
    return Status::InvalidArgument(
        "profile slot width must divide 86400 seconds");
  }
  SpeedProfile profile(network, options);

  auto update = [&](Cell& cell, float speed) {
    if (cell.count == 0) {
      cell.min_speed = speed;
      cell.max_speed = speed;
    } else {
      cell.min_speed = std::min(cell.min_speed, speed);
      cell.max_speed = std::max(cell.max_speed, speed);
    }
    cell.sum_speed += speed;
    ++cell.count;
  };

  store.ForEach([&](const MatchedTrajectory& traj) {
    for (const MatchedSample& s : traj.samples) {
      if (s.segment >= network.NumSegments()) continue;
      if (s.speed_mps < options.min_speed_floor) continue;  // drop "zero"
      SlotId slot = profile.SlotFor(TimeOfDay(s.timestamp));
      update(profile.cells_[profile.CellIndex(s.segment, slot)], s.speed_mps);
      size_t level = static_cast<size_t>(network.segment(s.segment).level);
      update(profile.level_fallback_[level * profile.num_slots_ + slot],
             s.speed_mps);
    }
  });
  return profile;
}

bool SpeedProfile::HasObservations(SegmentId seg,
                                   int64_t time_of_day_sec) const {
  if (seg >= network_->NumSegments()) return false;
  return cells_[CellIndex(seg, SlotFor(time_of_day_sec))].count > 0;
}

double SpeedProfile::MinSpeed(SegmentId seg, int64_t time_of_day_sec) const {
  SlotId slot = SlotFor(time_of_day_sec);
  const Cell& cell = cells_[CellIndex(seg, slot)];
  if (cell.count > 0) return cell.min_speed;
  size_t level = static_cast<size_t>(network_->segment(seg).level);
  const Cell& fb = level_fallback_[level * num_slots_ + slot];
  if (fb.count > 0) return fb.min_speed;
  // No observation anywhere in this slot: assume worst-case crawl. The
  // Near lists built from this bound the minimum region conservatively.
  return 0.2 * FreeFlowSpeed(network_->segment(seg).level);
}

double SpeedProfile::MaxSpeed(SegmentId seg, int64_t time_of_day_sec) const {
  SlotId slot = SlotFor(time_of_day_sec);
  const Cell& cell = cells_[CellIndex(seg, slot)];
  if (cell.count > 0) return cell.max_speed;
  size_t level = static_cast<size_t>(network_->segment(seg).level);
  const Cell& fb = level_fallback_[level * num_slots_ + slot];
  if (fb.count > 0) return fb.max_speed;
  return FreeFlowSpeed(network_->segment(seg).level);
}

double SpeedProfile::MeanSpeed(SegmentId seg, int64_t time_of_day_sec) const {
  SlotId slot = SlotFor(time_of_day_sec);
  const Cell& cell = cells_[CellIndex(seg, slot)];
  if (cell.count > 0) return cell.sum_speed / cell.count;
  size_t level = static_cast<size_t>(network_->segment(seg).level);
  const Cell& fb = level_fallback_[level * num_slots_ + slot];
  if (fb.count > 0) return fb.sum_speed / fb.count;
  return 0.7 * FreeFlowSpeed(network_->segment(seg).level);
}

void SpeedProfile::ApplyObservation(SegmentId seg, int64_t time_of_day_sec,
                                    double speed_mps) {
  if (seg >= network_->NumSegments()) return;
  // Reject NaN alongside "zero" speeds (NaN fails every >= comparison):
  // one poisoned sample would otherwise corrupt the cell stats forever.
  if (!std::isfinite(speed_mps) || speed_mps < options_.min_speed_floor) {
    return;
  }
  float speed = static_cast<float>(speed_mps);
  SlotId slot = SlotFor(NormalizeTimeOfDay(time_of_day_sec));
  ApplyUpdate(seg, static_cast<int64_t>(slot) * options_.slot_seconds, speed,
              speed, speed, 1);
}

uint8_t SpeedProfile::ApplyUpdate(SegmentId seg, int64_t time_of_day_sec,
                                  float min_speed, float max_speed,
                                  float sum_speed, uint32_t count) {
  if (seg >= network_->NumSegments() || count == 0) return kNoExtremeChange;
  SlotId slot = SlotFor(NormalizeTimeOfDay(time_of_day_sec));
  auto update = [&](Cell& cell) {
    bool changed = false;
    if (cell.count == 0) {
      cell.min_speed = min_speed;
      cell.max_speed = max_speed;
      changed = true;
    } else {
      if (min_speed < cell.min_speed) {
        cell.min_speed = min_speed;
        changed = true;
      }
      if (max_speed > cell.max_speed) {
        cell.max_speed = max_speed;
        changed = true;
      }
    }
    cell.sum_speed += sum_speed;
    cell.count += count;
    return changed;
  };
  uint8_t effect = kNoExtremeChange;
  if (update(cells_[CellIndex(seg, slot)])) effect |= kCellExtremesChanged;
  size_t level = static_cast<size_t>(network_->segment(seg).level);
  if (update(level_fallback_[level * num_slots_ + slot])) {
    effect |= kFallbackExtremesChanged;
  }
  return effect;
}

double SpeedProfile::CoverageFraction() const {
  if (cells_.empty()) return 0.0;
  size_t covered = 0;
  for (const Cell& c : cells_) {
    if (c.count > 0) ++covered;
  }
  return static_cast<double>(covered) / cells_.size();
}

}  // namespace strr
