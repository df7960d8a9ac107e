#include "roadnet/road_network.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace strr {

NodeId AddNodeImpl(std::vector<XyPoint>& nodes, const XyPoint& pos) {
  nodes.push_back(pos);
  return static_cast<NodeId>(nodes.size() - 1);
}

NodeId RoadNetwork::AddNode(const XyPoint& pos) {
  finalized_ = false;
  return AddNodeImpl(nodes_, pos);
}

StatusOr<SegmentId> RoadNetwork::AddSegment(NodeId from, NodeId to,
                                            RoadLevel level, Polyline shape) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    return Status::InvalidArgument("AddSegment: unknown node id");
  }
  if (shape.NumPoints() < 2) {
    return Status::InvalidArgument("AddSegment: shape needs >= 2 points");
  }
  finalized_ = false;
  RoadSegment seg;
  seg.id = static_cast<SegmentId>(segments_.size());
  seg.from_node = from;
  seg.to_node = to;
  seg.level = level;
  seg.length = shape.Length();
  seg.shape = std::move(shape);
  segments_.push_back(std::move(seg));
  return segments_.back().id;
}

StatusOr<SegmentId> RoadNetwork::AddTwoWaySegment(NodeId from, NodeId to,
                                                  RoadLevel level,
                                                  Polyline shape) {
  std::vector<XyPoint> reversed(shape.points().rbegin(),
                                shape.points().rend());
  STRR_ASSIGN_OR_RETURN(SegmentId fwd,
                        AddSegment(from, to, level, std::move(shape)));
  STRR_ASSIGN_OR_RETURN(
      SegmentId bwd,
      AddSegment(to, from, level, Polyline(std::move(reversed))));
  segments_[fwd].two_way = true;
  segments_[fwd].reverse_id = bwd;
  segments_[bwd].two_way = true;
  segments_[bwd].reverse_id = fwd;
  return fwd;
}

Status RoadNetwork::LinkTwins(SegmentId forward, SegmentId backward) {
  if (forward >= segments_.size() || backward >= segments_.size()) {
    return Status::InvalidArgument("LinkTwins: unknown segment id");
  }
  RoadSegment& f = segments_[forward];
  RoadSegment& b = segments_[backward];
  if (f.from_node != b.to_node || f.to_node != b.from_node) {
    return Status::InvalidArgument(
        "LinkTwins: segments are not opposite directions of one street");
  }
  f.two_way = true;
  f.reverse_id = backward;
  b.two_way = true;
  b.reverse_id = forward;
  finalized_ = false;
  return Status::OK();
}

Status RoadNetwork::Finalize() {
  const size_t n_seg = segments_.size();
  const size_t n_node = nodes_.size();
  node_out_.assign(n_node, {});
  std::vector<std::vector<SegmentId>> node_in(n_node);
  for (const RoadSegment& s : segments_) {
    node_out_[s.from_node].push_back(s.id);
    node_in[s.to_node].push_back(s.id);
  }

  outgoing_.assign(n_seg, {});
  incoming_.assign(n_seg, {});
  neighbors_.assign(n_seg, {});
  for (const RoadSegment& s : segments_) {
    for (SegmentId next : node_out_[s.to_node]) {
      if (next == s.reverse_id) continue;  // forbid immediate U-turns
      outgoing_[s.id].push_back(next);
    }
    for (SegmentId prev : node_in[s.from_node]) {
      if (prev == s.reverse_id) continue;
      incoming_[s.id].push_back(prev);
    }
    // Undirected neighbourhood for trace-back: anything sharing an endpoint.
    std::unordered_set<SegmentId> nb;
    for (NodeId node : {s.from_node, s.to_node}) {
      for (SegmentId other : node_out_[node]) {
        if (other != s.id) nb.insert(other);
      }
      for (SegmentId other : node_in[node]) {
        if (other != s.id) nb.insert(other);
      }
    }
    if (s.reverse_id != kInvalidSegment) nb.insert(s.reverse_id);
    neighbors_[s.id].assign(nb.begin(), nb.end());
    std::sort(neighbors_[s.id].begin(), neighbors_[s.id].end());
  }

  std::vector<RTree::Entry> boxes;
  boxes.reserve(n_seg);
  for (const RoadSegment& s : segments_) {
    boxes.push_back({s.bounding_box(), s.id});
  }
  rtree_.BulkLoad(std::move(boxes));
  finalized_ = true;
  return Status::OK();
}

double RoadNetwork::TotalLengthMeters() const {
  double total = 0.0;
  for (const RoadSegment& s : segments_) {
    // Count a two-way street once: only the twin with the lower id reports.
    if (s.two_way && s.reverse_id < s.id) continue;
    total += s.length;
  }
  return total;
}

double RoadNetwork::LengthOfSegments(const std::vector<SegmentId>& segs) const {
  double total = 0.0;
  for (SegmentId id : segs) {
    if (id < segments_.size()) total += segments_[id].length;
  }
  return total;
}

Mbr RoadNetwork::BoundingBox() const {
  Mbr box;
  for (const RoadSegment& s : segments_) box.Extend(s.bounding_box());
  return box;
}

StatusOr<SegmentId> RoadNetwork::NearestSegmentBruteForce(
    const XyPoint& p) const {
  if (segments_.empty()) return Status::NotFound("empty road network");
  SegmentId best = kInvalidSegment;
  double best_dist = std::numeric_limits<double>::max();
  for (const RoadSegment& s : segments_) {
    double d = s.shape.Project(p).distance;
    if (d < best_dist) {
      best_dist = d;
      best = s.id;
    }
  }
  return best;
}

std::vector<SegmentId> RoadNetwork::SegmentsWithinRadius(const XyPoint& p,
                                                         double radius) const {
  // The 1 m pad keeps a segment at exactly `radius` in the box search
  // whatever the rounding of its box; the distance test decides.
  std::vector<std::pair<double, SegmentId>> found;
  rtree_.SearchVisit(Mbr::FromPoint(p).Expanded(radius + 1.0),
                     [&](const RTree::Entry& e) {
                       double d = segments_[e.value].shape.Project(p).distance;
                       if (d <= radius) found.emplace_back(d, e.value);
                       return true;
                     });
  std::sort(found.begin(), found.end());
  std::vector<SegmentId> out;
  out.reserve(found.size());
  for (const auto& [d, id] : found) out.push_back(id);
  return out;
}

std::vector<size_t> RoadNetwork::CountByLevel() const {
  std::vector<size_t> counts(3, 0);
  for (const RoadSegment& s : segments_) {
    counts[static_cast<size_t>(s.level)]++;
  }
  return counts;
}

}  // namespace strr
