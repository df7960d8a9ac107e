// RoadNetwork: the directed segment graph G(V, E).
//
// V = intersections (nodes), E = directed road segments. The network owns
// the segment table and precomputed adjacency in both directions:
//   * OutgoingOf(seg)  — segments whose tail is seg's head (forward moves)
//   * IncomingOf(seg)  — segments whose head is seg's tail
//   * NeighborsOf(seg) — union of both plus the reverse twin; this is the
//     `neighbor(r)` relation the Trace Back Search expands through.
#ifndef STRR_ROADNET_ROAD_NETWORK_H_
#define STRR_ROADNET_ROAD_NETWORK_H_

#include <string>
#include <vector>

#include "geo/point.h"
#include "roadnet/segment.h"
#include "util/result.h"
#include "util/status.h"

namespace strr {

/// Immutable-after-Finalize directed road graph.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  /// Adds an intersection at `pos`; returns its id.
  NodeId AddNode(const XyPoint& pos);

  /// Adds a one-way directed segment between existing nodes with explicit
  /// shape. Returns the new segment id, or InvalidArgument when the nodes
  /// are unknown or the shape has fewer than 2 points.
  StatusOr<SegmentId> AddSegment(NodeId from, NodeId to, RoadLevel level,
                                 Polyline shape);

  /// Adds a pair of twin segments (forward + reverse) sharing the shape.
  /// Returns the forward segment id; its twin is reachable via reverse_id.
  StatusOr<SegmentId> AddTwoWaySegment(NodeId from, NodeId to, RoadLevel level,
                                       Polyline shape);

  /// Marks two existing segments as each other's two-way twins (used when
  /// reconstructing a persisted network). The segments must run between
  /// the same nodes in opposite directions.
  Status LinkTwins(SegmentId forward, SegmentId backward);

  /// Builds the adjacency tables; must be called once after the last
  /// AddNode/AddSegment and before any topology query.
  Status Finalize();

  bool finalized() const { return finalized_; }

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumSegments() const { return segments_.size(); }

  const RoadSegment& segment(SegmentId id) const { return segments_[id]; }
  const XyPoint& node(NodeId id) const { return nodes_[id]; }
  const std::vector<RoadSegment>& segments() const { return segments_; }

  /// Segments departing from `seg`'s head node (excluding the U-turn onto
  /// seg's own reverse twin).
  const std::vector<SegmentId>& OutgoingOf(SegmentId seg) const {
    return outgoing_[seg];
  }

  /// Segments arriving at `seg`'s tail node.
  const std::vector<SegmentId>& IncomingOf(SegmentId seg) const {
    return incoming_[seg];
  }

  /// Undirected road-network neighbourhood used by Trace Back Search:
  /// everything adjacent through either endpoint plus the reverse twin.
  const std::vector<SegmentId>& NeighborsOf(SegmentId seg) const {
    return neighbors_[seg];
  }

  /// Segments departing from node `n`.
  const std::vector<SegmentId>& OutgoingOfNode(NodeId n) const {
    return node_out_[n];
  }

  /// Total length of all segments, meters (each direction counted once).
  double TotalLengthMeters() const;

  /// Sum of lengths of the given segments, meters.
  double LengthOfSegments(const std::vector<SegmentId>& segs) const;

  /// Tight bounding box of the whole network.
  Mbr BoundingBox() const;

  /// Linear scan for the segment whose shape is closest to `p`; the indexed
  /// variant lives in StIndex (R-tree). Returns NotFound on empty networks.
  StatusOr<SegmentId> NearestSegmentBruteForce(const XyPoint& p) const;

  /// Counts segments per road level, indexed by static_cast<int>(level).
  std::vector<size_t> CountByLevel() const;

 private:
  std::vector<XyPoint> nodes_;
  std::vector<RoadSegment> segments_;
  std::vector<std::vector<SegmentId>> outgoing_;
  std::vector<std::vector<SegmentId>> incoming_;
  std::vector<std::vector<SegmentId>> neighbors_;
  std::vector<std::vector<SegmentId>> node_out_;
  bool finalized_ = false;
};

}  // namespace strr

#endif  // STRR_ROADNET_ROAD_NETWORK_H_
