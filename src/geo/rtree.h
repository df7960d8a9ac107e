// RTree: in-memory R-tree over (Mbr, payload-id) entries.
//
// The spatial component of the paper's ST-Index (Fig 3.2) and the one
// spatial index of the system. The re-segmented road network is static, so
// the tree is STR bulk-loaded once, when the network is finalized
// (RoadNetwork::spatial_index), and every reader shares it: query
// locations (StIndex::LocateSegment), the map matcher's candidate
// segments and the fleet simulator's hotspots
// (RoadNetwork::SegmentsWithinRadius). There is no incremental insert.
#ifndef STRR_GEO_RTREE_H_
#define STRR_GEO_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geo/mbr.h"
#include "geo/point.h"

namespace strr {

/// R-tree mapping rectangles to uint32 payloads (segment ids here).
class RTree {
 public:
  struct Entry {
    Mbr box;
    uint32_t value;
  };

  struct Node;  // public for the implementation's free helpers

  /// `max_entries` is the node fan-out M (at least 4).
  explicit RTree(size_t max_entries = 16);
  ~RTree();

  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Sort-Tile-Recursive bulk load; replaces current contents.
  void BulkLoad(std::vector<Entry> entries);

  /// All payloads whose boxes intersect `query`.
  std::vector<uint32_t> Search(const Mbr& query) const;

  /// Payloads of the `k` entries nearest to `p` (by box distance),
  /// best-first search. Fewer when the tree is smaller than k.
  std::vector<uint32_t> Nearest(const XyPoint& p, size_t k) const;

  /// Visits every entry intersecting `query`; return false to stop early.
  void SearchVisit(const Mbr& query,
                   const std::function<bool(const Entry&)>& visit) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Height of the tree (0 for empty, 1 for a root-leaf).
  int Height() const;

  /// Internal consistency check (every node's box is the cover of its
  /// children, fan-out at most M); used by tests.
  bool CheckInvariants() const;

 private:
  std::unique_ptr<Node> root_;
  size_t max_entries_;
  size_t size_ = 0;

  static void SearchNode(const Node* node, const Mbr& query,
                         const std::function<bool(const Entry&)>& visit,
                         bool* keep_going);
};

}  // namespace strr

#endif  // STRR_GEO_RTREE_H_
