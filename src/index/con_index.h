// ConIndex: the paper's Connection Index (§3.2.2).
//
// For each road segment and time slot it stores two reachability lists
// computed by bounded network expansion over one Δt interval:
//  * Near list  — every segment reachable within Δt at the *minimum*
//    observed speeds (lower bound of where traffic can get),
//  * Far list   — … at the *maximum* observed speeds (upper bound).
//
// Speeds come from the SpeedProfile (historical statistics); expansion is
// the modified INE of the paper. Because travel speeds are profiled at a
// coarser granularity (hourly by default) than Δt, connection tables are
// materialized per *profile slot* and shared by the Δt steps inside it —
// the substitution is documented in DESIGN.md and keeps the table count
// (and memory) bounded while preserving the time-varying behaviour.
//
// Tables are built lazily, on a query's first touch, and memoized: a
// query pays only for the (segment, slot) tables its cone reaches, and
// benches sweep Δt without building slots they never touch.
//
// An index never changes the profile it was built over: each table is
// written once and then only read. A speed refresh derives a new index
// over the refreshed profile with CloneWithInvalidation, which the live
// snapshot publisher (live/live_profile_manager.h) installs as the next
// version while readers keep this one.
#ifndef STRR_INDEX_CON_INDEX_H_
#define STRR_INDEX_CON_INDEX_H_

#include <memory>
#include <mutex>
#include <vector>

#include "index/speed_profile.h"
#include "roadnet/road_network.h"
#include "util/result.h"
#include "util/time_util.h"

namespace strr {

/// Con-Index construction knobs.
struct ConIndexOptions {
  int64_t delta_t_seconds = 300;  ///< Δt: expansion budget per hop
};

/// Connection tables. Thread-safe, including the lazy build path:
///  * each time slot has its own mutex guarding its `ready` flags, so
///    concurrent queries materializing different slots never contend;
///  * losers of a same-(seg, slot) build race discard their result and keep
///    the winner's (ComputeTables is deterministic, so either is correct);
///  * the per-slot near/far outer vectors are sized once at construction
///    and never resized, so the references returned by Far()/Near() stay
///    valid for the index lifetime — an element is written at most once,
///    before its `ready` flag is published under the slot mutex.
class ConIndex {
 public:
  /// Creates an empty (lazy) index over the network + profile.
  static StatusOr<std::unique_ptr<ConIndex>> Create(
      const RoadNetwork& network, const SpeedProfile& profile,
      const ConIndexOptions& options);

  /// Far list: segments reachable from `seg` within one Δt at max speeds,
  /// under the speed profile slot covering `time_of_day_sec`. Sorted.
  const std::vector<SegmentId>& Far(SegmentId seg,
                                    int64_t time_of_day_sec) const;

  /// Near list: same with minimum speeds. Sorted. Always a subset of Far.
  const std::vector<SegmentId>& Near(SegmentId seg,
                                     int64_t time_of_day_sec) const;

  /// One slot whose extremes changed on a *few segment cells only* (no
  /// level-fallback change): instead of dropping the whole slot, the
  /// clone keeps serving every table provably unaffected by the change.
  struct PartialInvalidation {
    SlotId slot = 0;
    std::vector<SegmentId> changed;  ///< sorted, deduplicated cell changes
  };

  /// Copy-on-invalidate for snapshot publication (live ingestion): builds
  /// a new index over `profile` (the refreshed fork) that *shares* the
  /// slot buckets of every profile slot not invalidated, starts the
  /// `invalidated_slots` empty (full invalidation: next queries lazily
  /// rebuild from the new profile), and gives each `partial` slot an
  /// overlay — the old bucket keeps serving its materialized tables
  /// except those a changed segment can actually reach, which rebuild
  /// lazily in a fresh per-generation bucket. O(#slots) pointer copies
  /// plus, per partial slot, membership probes over its materialized
  /// lists — no table data is copied or recomputed eagerly.
  ///
  /// Sharing is sound because an untouched slot has bit-identical speed
  /// statistics in both profiles, and lazy builds are deterministic:
  /// whichever index materializes a shared table first produces the same
  /// lists the other would (bucket mutexes make the concurrent fill
  /// race-safe, exactly as between two queries). The partial filter is
  /// sound because expansion labels are *completion* times: a speed
  /// change on segment X can alter the table of Y only via a path that
  /// completes X or enters X — and entering X means completing one of
  /// X's predecessors — so a table whose Near/Far lists contain neither X
  /// nor any predecessor of X (nor is X's own table) is bit-identical
  /// under the new profile. `profile` must have the same slot layout and
  /// must outlive the clone.
  std::unique_ptr<ConIndex> CloneWithInvalidation(
      const SpeedProfile& profile,
      const std::vector<SlotId>& invalidated_slots,
      const std::vector<PartialInvalidation>& partial = {}) const;

  int64_t delta_t_seconds() const { return options_.delta_t_seconds; }
  int32_t num_profile_slots() const { return num_slots_; }

  /// Number of materialized (segment, slot) tables so far.
  size_t MaterializedTables() const;

 private:
  struct SlotTables {
    std::vector<std::vector<SegmentId>> near;  // per segment
    std::vector<std::vector<SegmentId>> far;
    std::vector<uint8_t> ready;                // per segment
    std::mutex mu;
  };

  /// Partial-invalidation overlay (see CloneWithInvalidation): segments
  /// with use_base set serve straight from `base` (their tables were
  /// materialized and provably unaffected when the overlay was built —
  /// write-once, so reading them needs no lock); everything else builds
  /// lazily into this generation's own bucket (slots_[slot]) against this
  /// generation's profile. `base` is always the lineage's last fully-built
  /// bucket, so repeated partial invalidations only shrink use_base — no
  /// overlay chains.
  struct SlotOverlay {
    std::shared_ptr<SlotTables> base;  // null = slot has no overlay
    std::vector<uint8_t> use_base;     // per segment
  };

  /// `allocate_buckets` false leaves slots_ as null shared_ptrs — the
  /// CloneWithInvalidation path, which aliases or allocates per slot
  /// itself and must not pay O(num_slots x num_segments) throwaway
  /// allocations on every publish.
  ConIndex(const RoadNetwork& network, const SpeedProfile& profile,
           const ConIndexOptions& options, bool allocate_buckets = true);

  /// A fresh empty bucket sized for the network.
  std::shared_ptr<SlotTables> MakeBucket() const;

  /// Ensures tables for (seg, slot) exist and returns the slot bucket.
  SlotTables& EnsureTables(SegmentId seg, SlotId slot) const;

  /// Expands (seg, slot) on the unified frontier core (with a pooled
  /// expansion context) and publishes the Near/Far lists into `bucket`
  /// (first writer wins). Kept out of EnsureTables so its hot ready-check
  /// stays a small frame.
  void ComputeTables(SegmentId seg, SlotId slot, SlotTables& bucket) const;

  const RoadNetwork* network_;
  const SpeedProfile* profile_;
  ConIndexOptions options_;
  int32_t num_slots_ = 0;
  /// Shared, not unique: CloneWithInvalidation aliases unaffected buckets
  /// across snapshot generations, so a bucket lazily filled by any
  /// generation serves all of them.
  mutable std::vector<std::shared_ptr<SlotTables>> slots_;
  /// Parallel to slots_; entry active iff base != nullptr.
  mutable std::vector<SlotOverlay> overlays_;
};

}  // namespace strr

#endif  // STRR_INDEX_CON_INDEX_H_
