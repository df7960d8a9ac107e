// SpeedProfile: per-(segment, time-slot) speed statistics mined from the
// historical trajectories.
//
// The Con-Index construction (paper §3.2.2) expands the network with the
// minimum observed speed (zero speeds removed) for Near lists and the
// maximum observed speed for Far lists. This class aggregates those
// statistics per segment per profile slot (default: hourly), with a
// per-(road-level, slot) fallback for segments with no observations in a
// slot, so the expansion always has a defined speed.
#ifndef STRR_INDEX_SPEED_PROFILE_H_
#define STRR_INDEX_SPEED_PROFILE_H_

#include <cstdint>
#include <vector>

#include "roadnet/road_network.h"
#include "traj/trajectory_store.h"
#include "util/result.h"
#include "util/time_util.h"

namespace strr {

/// Profile construction knobs.
struct SpeedProfileOptions {
  int64_t slot_seconds = 3600;     ///< profile slot width (default hourly)
  double min_speed_floor = 0.5;    ///< speeds below this are "zero", dropped
};

/// Aggregated min/mean/max speeds.
class SpeedProfile {
 public:
  /// Scans every matched sample once and fills the tables.
  static StatusOr<SpeedProfile> Build(const RoadNetwork& network,
                                      const TrajectoryStore& store,
                                      const SpeedProfileOptions& options = {});

  /// Minimum observed speed for the slot covering `time_of_day_sec`
  /// (fallback chain: segment stats -> level/slot aggregate -> 45% of
  /// free-flow).
  double MinSpeed(SegmentId seg, int64_t time_of_day_sec) const;

  /// Maximum observed speed (fallbacks analogous; last resort free-flow).
  double MaxSpeed(SegmentId seg, int64_t time_of_day_sec) const;

  /// Mean observed speed (fallbacks analogous; last resort 70% free-flow).
  double MeanSpeed(SegmentId seg, int64_t time_of_day_sec) const;

  /// True when the segment itself (not a fallback) had samples in the slot.
  bool HasObservations(SegmentId seg, int64_t time_of_day_sec) const;

  // --- Updates --------------------------------------------------------------

  /// Folds one fresh speed observation into the (segment, slot)
  /// statistics. Observations below the min_speed_floor are dropped,
  /// mirroring Build. Mutates in place, so never call it on a profile
  /// queries are reading: serving refreshes go through the live ingestion
  /// subsystem (live/), which applies batches to forked copies. This is
  /// the one-observation-at-a-time reference the coalesced ApplyUpdate
  /// path is tested against.
  void ApplyObservation(SegmentId seg, int64_t time_of_day_sec,
                        double speed_mps);

  /// ApplyUpdate outcome flags: which *extreme* statistics changed (the
  /// only statistics the Con-Index and bounding-region expansion read,
  /// hence the triggers for invalidating derived tables — mean/count
  /// updates alone never invalidate anything). Cell changes affect only
  /// expansions that reach this segment; fallback changes affect every
  /// observation-less segment of the road level, i.e. the whole slot.
  enum UpdateEffect : uint8_t {
    kNoExtremeChange = 0,
    kCellExtremesChanged = 1,
    kFallbackExtremesChanged = 2,
  };

  /// Folds a pre-aggregated batch of observations for one (segment, slot)
  /// — the coalesced form the live ingestor produces; equivalent to
  /// `count` ApplyObservation calls. Inputs must be pre-filtered (finite,
  /// >= min_speed_floor) and `count` > 0. Returns UpdateEffect flags
  /// (OR-ed).
  uint8_t ApplyUpdate(SegmentId seg, int64_t time_of_day_sec, float min_speed,
                      float max_speed, float sum_speed, uint32_t count);

  double min_speed_floor() const { return options_.min_speed_floor; }

  int64_t slot_seconds() const { return options_.slot_seconds; }
  int32_t num_slots() const { return num_slots_; }

  /// Fraction of (segment, slot) cells with direct observations.
  double CoverageFraction() const;

 private:
  struct Cell {
    float min_speed = 0.0f;
    float max_speed = 0.0f;
    float sum_speed = 0.0f;
    uint32_t count = 0;
  };

  SpeedProfile(const RoadNetwork& network, SpeedProfileOptions options);

  size_t CellIndex(SegmentId seg, SlotId slot) const {
    return static_cast<size_t>(seg) * num_slots_ + slot;
  }
  SlotId SlotFor(int64_t time_of_day_sec) const {
    return SlotOfTimeOfDay(time_of_day_sec % kSecondsPerDay,
                           options_.slot_seconds);
  }

  const RoadNetwork* network_;
  SpeedProfileOptions options_;
  int32_t num_slots_ = 0;
  std::vector<Cell> cells_;                 // segment-major
  std::vector<Cell> level_fallback_;        // (level, slot)
};

}  // namespace strr

#endif  // STRR_INDEX_SPEED_PROFILE_H_
