#include "traj/map_matcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

namespace strr {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Candidate {
  SegmentId segment;
  double emission_logp;
};
}  // namespace

MapMatcher::MapMatcher(const RoadNetwork& network, MapMatcherOptions options)
    : network_(network), options_(options) {}

double MapMatcher::RouteDistance(SegmentId from, SegmentId to,
                                 double budget_m) const {
  if (from == to) return 0.0;
  // Dijkstra over meters, bounded by budget_m, from the head of `from`.
  struct Entry {
    double dist;
    SegmentId seg;
    bool operator>(const Entry& o) const { return dist > o.dist; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  std::unordered_map<SegmentId, double> dist;
  dist[from] = 0.0;
  queue.push({0.0, from});
  while (!queue.empty()) {
    Entry top = queue.top();
    queue.pop();
    if (top.dist > dist[top.seg]) continue;
    if (top.seg == to) return top.dist;
    for (SegmentId next : network_.OutgoingOf(top.seg)) {
      double d = top.dist + network_.segment(next).length;
      if (d > budget_m) continue;
      auto it = dist.find(next);
      if (it == dist.end() || d < it->second) {
        dist[next] = d;
        queue.push({d, next});
      }
    }
  }
  return kInf;
}

StatusOr<MatchedTrajectory> MapMatcher::Match(const RawTrajectory& raw) const {
  MatchedTrajectory out;
  out.id = raw.id;
  out.taxi = raw.taxi;
  out.day = raw.day;
  if (raw.points.empty()) return out;

  const double sigma2 = options_.gps_sigma_m * options_.gps_sigma_m;

  // Build candidate sets, skipping fixes with no nearby segment.
  std::vector<std::vector<Candidate>> layers;
  std::vector<size_t> fix_of_layer;
  for (size_t i = 0; i < raw.points.size(); ++i) {
    std::vector<SegmentId> near = network_.SegmentsWithinRadius(
        raw.points[i].position, options_.candidate_radius_m);
    if (near.empty()) continue;
    if (near.size() > options_.max_candidates) {
      near.resize(options_.max_candidates);  // sorted by distance
    }
    std::vector<Candidate> layer;
    layer.reserve(near.size());
    for (SegmentId seg : near) {
      double d =
          network_.segment(seg).shape.Project(raw.points[i].position).distance;
      layer.push_back({seg, -0.5 * d * d / sigma2});
    }
    layers.push_back(std::move(layer));
    fix_of_layer.push_back(i);
  }
  if (layers.empty()) return out;

  // Viterbi.
  std::vector<std::vector<double>> score(layers.size());
  std::vector<std::vector<int>> back(layers.size());
  score[0].resize(layers[0].size());
  back[0].assign(layers[0].size(), -1);
  for (size_t j = 0; j < layers[0].size(); ++j) {
    score[0][j] = layers[0][j].emission_logp;
  }

  for (size_t t = 1; t < layers.size(); ++t) {
    const GpsRecord& prev_fix = raw.points[fix_of_layer[t - 1]];
    const GpsRecord& cur_fix = raw.points[fix_of_layer[t]];
    double straight = Distance(prev_fix.position, cur_fix.position);
    double budget =
        std::max(200.0, straight * options_.max_route_factor + 200.0);
    score[t].assign(layers[t].size(), -kInf);
    back[t].assign(layers[t].size(), -1);
    for (size_t j = 0; j < layers[t].size(); ++j) {
      for (size_t k = 0; k < layers[t - 1].size(); ++k) {
        if (score[t - 1][k] == -kInf) continue;
        double route = RouteDistance(layers[t - 1][k].segment,
                                     layers[t][j].segment, budget);
        double mismatch = route == kInf
                              ? budget  // unreachable: harshest penalty
                              : std::abs(route - straight);
        double trans_logp = -mismatch / (options_.transition_beta *
                                         options_.gps_sigma_m);
        double s = score[t - 1][k] + trans_logp + layers[t][j].emission_logp;
        if (s > score[t][j]) {
          score[t][j] = s;
          back[t][j] = static_cast<int>(k);
        }
      }
    }
  }

  // Backtrack from the best final state.
  size_t last = layers.size() - 1;
  int best = 0;
  for (size_t j = 1; j < layers[last].size(); ++j) {
    if (score[last][j] > score[last][best]) best = static_cast<int>(j);
  }
  std::vector<SegmentId> path(layers.size());
  for (size_t t = last + 1; t-- > 0;) {
    path[t] = layers[t][best].segment;
    if (t > 0) best = back[t][best];
    if (best < 0 && t > 0) {
      // Broken chain (all-(-inf) column); fall back to emission-only pick.
      best = 0;
    }
  }

  // Collapse consecutive duplicates into MatchedSamples.
  for (size_t t = 0; t < path.size(); ++t) {
    const GpsRecord& fix = raw.points[fix_of_layer[t]];
    if (!out.samples.empty() && out.samples.back().segment == path[t]) {
      continue;
    }
    out.samples.push_back(
        {path[t], fix.timestamp, static_cast<float>(fix.speed_mps)});
  }
  return out;
}

}  // namespace strr
