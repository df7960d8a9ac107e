#include "traj/fleet_simulator.h"

#include <algorithm>
#include <cmath>

#include "roadnet/router.h"
#include "util/rng.h"

namespace strr {

namespace {

/// Hotspot: a popular neighbourhood — an anchor segment plus every segment
/// within walking distance, so trips end across the whole block, not on
/// one street.
struct Hotspot {
  SegmentId segment;
  double weight;
  std::vector<SegmentId> nearby;  ///< endpoint pool around the anchor
};

constexpr double kHotspotJitterRadiusM = 550.0;

/// Picks hotspot neighbourhoods, biased toward the centre of the network
/// so the synthetic city has a recognizable "downtown".
std::vector<Hotspot> PickHotspots(const RoadNetwork& network, int count,
                                  Rng& rng) {
  std::vector<Hotspot> hotspots;
  Mbr box = network.BoundingBox();
  XyPoint center = box.Center();
  double radius = std::max(box.Width(), box.Height()) / 2.0 + 1.0;
  const size_t n = network.NumSegments();
  for (int i = 0; i < count && n > 0; ++i) {
    SegmentId seg = static_cast<SegmentId>(rng.UniformInt(0, n - 1));
    XyPoint mid = network.segment(seg).shape.Interpolate(
        network.segment(seg).length / 2.0);
    double dist_ratio = Distance(mid, center) / radius;  // 0 centre, 1 edge
    // Weight decays with distance from centre; keep a floor so suburbs get
    // some traffic too.
    double weight = 0.15 + std::exp(-4.0 * dist_ratio * dist_ratio);
    Hotspot h{seg, weight,
              network.SegmentsWithinRadius(mid, kHotspotJitterRadiusM)};
    if (h.nearby.empty()) h.nearby.push_back(seg);
    hotspots.push_back(std::move(h));
  }
  return hotspots;
}

/// Samples a trip endpoint: a segment in a hotspot neighbourhood
/// (weighted), or a uniformly random segment.
SegmentId SampleEndpoint(const RoadNetwork& network,
                         const std::vector<Hotspot>& hotspots,
                         double hotspot_fraction, Rng& rng,
                         std::vector<double>& weight_scratch) {
  if (!hotspots.empty() && rng.Chance(hotspot_fraction)) {
    if (weight_scratch.size() != hotspots.size()) {
      weight_scratch.resize(hotspots.size());
      for (size_t i = 0; i < hotspots.size(); ++i) {
        weight_scratch[i] = hotspots[i].weight;
      }
    }
    const Hotspot& h = hotspots[rng.WeightedIndex(weight_scratch)];
    return h.nearby[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(h.nearby.size()) - 1))];
  }
  return static_cast<SegmentId>(
      rng.UniformInt(0, static_cast<int64_t>(network.NumSegments()) - 1));
}

/// Deterministic per-(segment, variant) factor in [0.75, 1.25): perturbs
/// route costs so different drivers take different reasonable paths
/// between the same endpoints (real traffic spreads over parallel roads;
/// pure shortest paths would funnel everything onto one street).
double VariantFactor(SegmentId seg, int variant) {
  uint64_t x =
      (static_cast<uint64_t>(seg) << 8) | static_cast<uint64_t>(variant);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return 0.75 + 0.5 * (static_cast<double>(x & 0xffffff) / 16777216.0);
}

}  // namespace

StatusOr<FleetResult> SimulateFleet(const RoadNetwork& network,
                                    const FleetOptions& opt, int raw_days) {
  if (!network.finalized()) {
    return Status::FailedPrecondition("SimulateFleet: network not finalized");
  }
  if (network.NumSegments() == 0) {
    return Status::InvalidArgument("SimulateFleet: empty network");
  }
  if (opt.num_days <= 0 || opt.num_taxis == 0) {
    return Status::InvalidArgument("SimulateFleet: need taxis and days");
  }

  Rng master(opt.seed);
  FleetResult result;
  result.store = std::make_unique<TrajectoryStore>(opt.num_days);

  std::vector<Hotspot> hotspots =
      PickHotspots(network, opt.num_hotspots, master);
  std::vector<double> weight_scratch;

  // Route diversity: each trip uses one of a few cost perturbations, so
  // the same OD pair spreads over parallel streets across days.
  constexpr int kNumRouteVariants = 5;
  std::vector<std::unique_ptr<Router>> routers;
  for (int v = 0; v < kNumRouteVariants; ++v) {
    SpeedFn speeds = [&network, v](SegmentId id) {
      return FreeFlowSpeed(network.segment(id).level) * VariantFactor(id, v);
    };
    routers.push_back(std::make_unique<Router>(
        network, speeds, FreeFlowSpeed(RoadLevel::kHighway) * 1.25));
  }

  TrajectoryId next_id = 0;
  for (uint32_t taxi = 0; taxi < opt.num_taxis; ++taxi) {
    Rng taxi_rng = master.Fork();
    bool night_shift = taxi_rng.Chance(opt.night_fraction);
    for (DayIndex day = 0; day < opt.num_days; ++day) {
      Rng rng = taxi_rng.Fork();
      MatchedTrajectory traj;
      traj.id = next_id++;
      traj.taxi = taxi;
      traj.day = day;
      RawTrajectory raw;
      bool want_raw = day < raw_days;
      if (want_raw) {
        raw.id = traj.id;
        raw.taxi = taxi;
        raw.day = day;
      }

      // Shift window (night shift wraps conceptually; we just run the
      // complementary hours of the same day to keep days independent).
      double shift_begin, shift_end;
      if (night_shift) {
        shift_begin = 0.0;
        shift_end = HMS(opt.shift_start_hour) + 3600.0;
      } else {
        shift_begin = HMS(opt.shift_start_hour);
        shift_end = HMS(opt.shift_end_hour);
      }

      double now = shift_begin + rng.Uniform(0.0, 1800.0);
      SegmentId position = SampleEndpoint(network, hotspots,
                                          opt.hotspot_trip_fraction, rng,
                                          weight_scratch);
      double gps_countdown = 0.0;  // emit a raw fix when it reaches <= 0

      while (now < shift_end) {
        // Idle gap before the next pickup.
        double gap = rng.Exponential(opt.trips_per_hour / 3600.0);
        now += std::min(gap, 3600.0 * 2);
        if (now >= shift_end) break;

        SegmentId dest = SampleEndpoint(network, hotspots,
                                        opt.hotspot_trip_fraction, rng,
                                        weight_scratch);
        if (dest == position) continue;
        int variant =
            static_cast<int>(rng.UniformInt(0, kNumRouteVariants - 1));
        const std::vector<SegmentId>& path =
            routers[variant]->RouteCached(position, dest);
        if (path.empty()) continue;
        ++result.num_trips;

        double trip_noise = std::exp(rng.Gaussian(0.0, opt.speed_noise_std));
        for (SegmentId seg_id : path) {
          // Trips never cross midnight: a day's trajectory is self-contained
          // (the paper's "one trajectory per day" model).
          if (now >= kSecondsPerDay - 1) break;
          const RoadSegment& seg = network.segment(seg_id);
          int64_t tod = static_cast<int64_t>(now);
          double speed = opt.congestion.ExpectedSpeed(seg.level, tod) *
                         trip_noise *
                         std::exp(rng.Gaussian(0.0, opt.speed_noise_std * 0.5));
          if (rng.Chance(opt.slow_traversal_prob)) {
            speed *= rng.Uniform(opt.slow_traversal_factor_lo,
                                 opt.slow_traversal_factor_hi);
          }
          // Physical speed limit: noise never pushes past the design speed.
          double limit = FreeFlowSpeed(seg.level);
          if (speed > limit) speed = limit;
          if (speed < 0.8) speed = 0.8;
          Timestamp enter = MakeTimestamp(day, tod);
          traj.samples.push_back(
              {seg_id, enter, static_cast<float>(speed)});

          if (want_raw) {
            // Emit raw GPS fixes while traversing this segment.
            double traverse = seg.length / speed;
            double t_in_seg = 0.0;
            while (gps_countdown <= traverse - t_in_seg) {
              t_in_seg += gps_countdown;
              double offset = speed * t_in_seg;
              XyPoint p = seg.shape.Interpolate(offset);
              p.x += rng.Gaussian(0.0, opt.gps_noise_std_m);
              p.y += rng.Gaussian(0.0, opt.gps_noise_std_m);
              int64_t fix_tod = std::min<int64_t>(
                  static_cast<int64_t>(now + t_in_seg), kSecondsPerDay - 1);
              raw.points.push_back({p, MakeTimestamp(day, fix_tod), speed});
              gps_countdown = opt.gps_interval_sec;
            }
            gps_countdown -= (traverse - t_in_seg);
          }

          now += seg.length / speed;
          if (now >= shift_end + 1800.0) break;  // over-long trip guard
        }
        position = dest;
        result.num_gps_points += static_cast<uint64_t>(
            network.LengthOfSegments(path) /
                (opt.congestion.ExpectedSpeed(RoadLevel::kArterial,
                                              static_cast<int64_t>(now) %
                                                  kSecondsPerDay) *
                 opt.gps_interval_sec) +
            1);
      }

      if (!traj.samples.empty()) {
        STRR_RETURN_IF_ERROR(result.store->Add(std::move(traj)));
      }
      if (want_raw && !raw.points.empty()) {
        result.raw_sample.push_back(std::move(raw));
      }
    }
  }
  return result;
}

LiveObservationSource::LiveObservationSource(
    const RoadNetwork& network, const LiveObservationOptions& options)
    : network_(&network), options_(options), rng_(options.seed) {}

SpeedObservation LiveObservationSource::Next(int64_t time_of_day_sec) {
  SegmentId seg = static_cast<SegmentId>(
      rng_.UniformInt(0, static_cast<int64_t>(network_->NumSegments()) - 1));
  return NextAt(seg, time_of_day_sec);
}

SpeedObservation LiveObservationSource::NextAt(SegmentId segment,
                                               int64_t time_of_day_sec) {
  // The same speed model SimulateFleet samples matched trajectories from,
  // minus the per-trip noise (a live probe is one vehicle-second, not a
  // trip): congestion-dipped expected speed, lognormal jitter, occasional
  // near-crawl traversal, clamped to the design speed.
  const RoadSegment& seg = network_->segment(segment);
  int64_t tod = NormalizeTimeOfDay(time_of_day_sec);
  double speed = options_.congestion.ExpectedSpeed(seg.level, tod) *
                 std::exp(rng_.Gaussian(0.0, options_.speed_noise_std));
  if (rng_.Chance(options_.slow_traversal_prob)) {
    speed *= rng_.Uniform(options_.slow_traversal_factor_lo,
                          options_.slow_traversal_factor_hi);
  }
  double limit = FreeFlowSpeed(seg.level);
  if (speed > limit) speed = limit;
  if (speed < 0.8) speed = 0.8;
  return SpeedObservation{segment, tod, speed};
}

}  // namespace strr
