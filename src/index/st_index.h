// StIndex: the paper's Spatio-Temporal Index (§3.2.1).
//
// Three components, exactly as Figure 3.2 lays them out:
//  * Temporal index — a B+-tree over the day's Δt-wide time slots
//    (key = slot start second, value = slot id).
//  * Spatial index — an R-tree over the re-segmented road network. The
//    network is static, so all temporal leaves share ONE R-tree (the paper
//    makes the same observation).
//  * Time lists — for each (segment, slot), the per-date lists of
//    trajectory IDs that traversed the segment in that slot. These live on
//    disk in a PostingStore, slot-major as in the figure (one slot's lists
//    for all segments lie together), and are read through a BufferPool,
//    so every access is measurable I/O. Build writes the lists with a
//    counting sort over the grid NumSegments() × slots_per_day() and opens
//    the store over the same grid, the shape of its dense in-memory
//    directory: whether a (segment, slot) has a time list is one bitmap
//    test, with no filter in front of it. A query verifies through
//    one TimeListWindow over its slot range, which (up to its buffer cap)
//    requests each distinct page once however many segments it verifies.
#ifndef STRR_INDEX_ST_INDEX_H_
#define STRR_INDEX_ST_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/bplus_tree.h"
#include "index/rtree.h"
#include "index/start_id_sets.h"
#include "roadnet/road_network.h"
#include "storage/posting_store.h"
#include "traj/trajectory_store.h"
#include "util/result.h"
#include "util/time_util.h"

namespace strr {

/// ST-Index construction knobs.
struct StIndexOptions {
  int64_t slot_seconds = 300;   ///< Δt: temporal granularity (default 5 min)
  std::string posting_path;     ///< where the time-list file goes (required)
  size_t cache_pages = 4096;    ///< buffer-pool capacity for reads
  uint32_t page_size = kDefaultPageSize;
  /// LocateSegment match radius: a query location farther than this from
  /// every segment is NotFound instead of silently snapping to a road
  /// kilometres away (junk coordinates from misbehaving clients). 25 km
  /// comfortably covers GPS noise and off-network pickups while rejecting
  /// other-continent floods; <= 0 disables the cap and restores the
  /// unconditional snap-to-nearest behavior. Deliberately on by default —
  /// fabricating reachability for a point 1000 km off-network is a bug,
  /// not behavior to preserve; city-scale workloads (the paper's) never
  /// hit the cap. EngineOptions::max_locate_distance_m plumbs it through.
  double max_locate_distance_m = 25000.0;
};

/// Per-day trajectory-ID lists for one (segment, slot): time_lists[d] is
/// the sorted list of trajectory ids active on day d.
using TimeList = std::vector<std::vector<TrajectoryId>>;

/// Built index; immutable after Build and thread-safe for concurrent
/// queries: the R-tree/B+-tree lookups are const over frozen structures,
/// and the time-list reads copy page bytes out under the page's BufferPool
/// shard lock into a buffer owned by the calling thread or its query's
/// window. The StorageStats counters are shared across all concurrent
/// queries (FileManager keeps them atomic); per-query I/O deltas are only
/// meaningful for sequential execution.
class StIndex {
 public:
  /// Builds from the matched-trajectory database, writing the posting file
  /// and loading its directory back for querying. Two passes over the
  /// samples counting-sort 8-byte (day, trajectory) entries into one flat
  /// array of per-cell runs, which are encoded cell by cell in slot-major
  /// order; the array is freed before the store is opened. Samples on a
  /// segment outside the network are skipped; a sample whose slot falls
  /// outside the grid is InvalidArgument.
  static StatusOr<std::unique_ptr<StIndex>> Build(
      const RoadNetwork& network, const TrajectoryStore& store,
      const StIndexOptions& options);

  // --- Spatial -------------------------------------------------------------

  /// Segment whose geometry is nearest to `p` (query location -> start
  /// road segment, the first step of every query). NotFound when empty.
  StatusOr<SegmentId> LocateSegment(const XyPoint& p) const;

  /// Segments intersecting the rectangle (spatial range selection).
  std::vector<SegmentId> SegmentsInRange(const Mbr& box) const;

  // --- Temporal ------------------------------------------------------------

  /// Slot covering a time of day (floor lookup through the B+-tree).
  SlotId SlotForTime(int64_t time_of_day_sec) const;

  /// All slot ids whose windows intersect [begin_tod, end_tod) within one
  /// day; clamps the range to [0, 86400) first, so a range outside the day
  /// covers no slot.
  std::vector<SlotId> SlotsCovering(int64_t begin_tod, int64_t end_tod) const;

  int64_t slot_seconds() const { return options_.slot_seconds; }
  int32_t slots_per_day() const { return slots_per_day_; }
  int32_t num_days() const { return num_days_; }

  // --- Time lists ------------------------------------------------------------

  /// Reads the time list of (segment, slot) from disk. Days with no
  /// traversals have empty lists. Costs buffer-pool I/O.
  StatusOr<TimeList> ReadTimeList(SegmentId seg, SlotId slot) const;

  /// A read window over the time lists of slots [first_slot, last_slot],
  /// clamped to the day (empty when nothing of the range is inside it).
  /// One window serves one query's verifications, on one thread.
  PostingStore::Window TimeListWindow(SlotId first_slot,
                                      SlotId last_slot) const;

  /// What one segment's verification did: days newly marked, and the
  /// present time lists it decoded.
  struct SegmentMarks {
    int days_marked = 0;
    uint32_t lists_read = 0;
  };

  /// The verification step of Eq. 3.1 for segment `seg` over the window's
  /// slots, without materialising a TimeList. Walks the present (seg,
  /// slot) lists in slot order through `window` and, for every day d with
  /// day_hit[d] == 0 and a non-empty start set, sets day_hit[d] = 1 when
  /// the day-d list shares an id with start_ids' day-d set; each id costs
  /// one membership test as it is delta-decoded, and a day's walk ends at
  /// its first member or at the first id past the set's max. Stops as soon as
  /// `stop_at` days of day_hit are marked (or reads nothing when that many
  /// already are), so the pages only later slots need are not requested
  /// for this segment: a caller that wants the exact count passes the
  /// number of days with start ids, one that wants a verdict the number of
  /// days it needs. Absent lists cost a bitmap test and no I/O. Same
  /// corruption checks as ReadTimeList (one decoder serves both).
  StatusOr<SegmentMarks> MarkDaysIntersecting(
      SegmentId seg, PostingStore::Window* window,
      const StartIdSets& start_ids, std::vector<uint8_t>* day_hit,
      int stop_at) const;

  /// True when some trajectory traversed (segment, slot) on any day —
  /// directory-only check, no I/O.
  bool HasTraffic(SegmentId seg, SlotId slot) const;

  // --- Introspection ---------------------------------------------------------

  StorageStats storage_stats() const { return postings_->stats(); }
  void ResetStorageStats() { postings_->ResetStats(); }
  void DropCache() { postings_->DropCache(); }

  const RTree& rtree() const { return rtree_; }
  const BPlusTree& temporal_tree() const { return temporal_; }
  uint64_t NumPostings() const { return postings_->NumEntries(); }
  const RoadNetwork& network() const { return *network_; }

 private:
  StIndex(const RoadNetwork& network, StIndexOptions options)
      : network_(&network), options_(std::move(options)) {}

  const RoadNetwork* network_;
  StIndexOptions options_;
  int32_t slots_per_day_ = 0;
  int32_t num_days_ = 0;
  RTree rtree_;
  BPlusTree temporal_;
  std::unique_ptr<PostingStore> postings_;
};

}  // namespace strr

#endif  // STRR_INDEX_ST_INDEX_H_
