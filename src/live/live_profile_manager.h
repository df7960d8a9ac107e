// LiveProfileManager: versioned, immutable index snapshots published by
// atomic pointer swap — the read side of the live ingestion subsystem.
//
// A snapshot bundles one SpeedProfile with the ConIndex derived from it.
// Queries Acquire() a snapshot (an epoch pin + pointer load, no locks on
// the read path) and execute entirely against it, so a refresh landing
// mid-query can never tear a profile read or dangle a Con-Index table
// reference: the query finishes on the version it started on, and the
// superseded version is reclaimed only after every pinned reader drains
// (EpochManager grace period). Every engine owns one manager and every
// query pins from it: with no ingestor nothing publishes, and queries read
// version 0 — the engine-built indexes, aliased rather than copied. The
// manager's invalidation listeners are the only way cached results learn
// of a refresh.
//
// Publication is cheap and precise:
//  * the profile is forked (one flat cell-array copy) and the coalesced
//    batch folded in;
//  * only profile slots whose *extreme* statistics changed invalidate
//    anything — min/max are all the Con-Index expansion and bounding
//    regions read, so a batch that only shifts means/counts publishes a
//    fresh profile with zero table or cache invalidation;
//  * the new ConIndex shares every unaffected slot bucket with its
//    predecessor (shared_ptr alias, see ConIndex::CloneWithInvalidation),
//    so no table data is copied and tables lazily built by any generation
//    serve all generations;
//  * registered invalidation listeners (the ResultCache Δt-slot hook) fire
//    for exactly the changed slot ranges.
#ifndef STRR_LIVE_LIVE_PROFILE_MANAGER_H_
#define STRR_LIVE_LIVE_PROFILE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "index/con_index.h"
#include "index/speed_profile.h"
#include "live/epoch_manager.h"
#include "live/observation.h"
#include "util/thread_pool.h"

namespace strr {

/// Manager construction knobs.
struct LiveProfileOptions {
  /// Ingest-driven Con-Index prewarm: after a publish that partially
  /// invalidates a slot, background tasks rebuild exactly the tables the
  /// invalidation knocked out (the lazy-rebuild work list from
  /// ConIndex::CloneWithInvalidation) on the new snapshot, so queries stop
  /// paying the lazy-build latency spike (the p99 gap at high observation
  /// rates). Tasks pin the target version and skip (cheaply) when a newer
  /// snapshot superseded it before they ran. Off by default.
  bool prewarm = false;
  /// Background prewarm worker threads.
  int prewarm_threads = 1;
};

/// One immutable published version of the index stack's mutable half.
/// Version 0 aliases the engine-built base profile/index (not owned);
/// published versions own their forked copies.
struct IndexSnapshot {
  uint64_t version = 0;
  const SpeedProfile* profile = nullptr;
  const ConIndex* con_index = nullptr;
  std::unique_ptr<const SpeedProfile> owned_profile;
  std::unique_ptr<const ConIndex> owned_con_index;
};

/// RAII read handle: an epoch pin plus the snapshot pointer it protects.
/// Hold for the duration of one query; the indexes it exposes are
/// guaranteed alive and immutable until release. Movable; cheap.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(EpochManager::Pin pin, const IndexSnapshot* snapshot)
      : pin_(std::move(pin)), snapshot_(snapshot) {}

  bool valid() const { return snapshot_ != nullptr; }
  uint64_t version() const { return snapshot_->version; }
  const SpeedProfile& profile() const { return *snapshot_->profile; }
  const ConIndex& con_index() const { return *snapshot_->con_index; }

 private:
  EpochManager::Pin pin_;
  const IndexSnapshot* snapshot_ = nullptr;
};

/// Publishes and reclaims snapshots. Readers (Acquire, version) are
/// wait-free against writers; writers (Publish) serialize among
/// themselves. The base profile/index, the network behind them, and the
/// EpochManager must outlive the manager.
class LiveProfileManager {
 public:
  /// Wraps the engine-built `base_profile` + `base_con_index` as version 0.
  LiveProfileManager(EpochManager& epochs, const SpeedProfile& base_profile,
                     const ConIndex& base_con_index,
                     const LiveProfileOptions& options = {});

  /// Reclaims every superseded snapshot and the current one. No reader may
  /// hold a SnapshotRef at destruction (same lifetime contract as the
  /// executor over its indexes).
  ~LiveProfileManager();

  LiveProfileManager(const LiveProfileManager&) = delete;
  LiveProfileManager& operator=(const LiveProfileManager&) = delete;

  /// Pins and returns the current snapshot. Lock-free; call once per query
  /// and hold the ref until the result is fully materialized.
  SnapshotRef Acquire() const;

  /// Version of the snapshot Acquire would return right now.
  uint64_t version() const { return version_.load(); }

  /// Called after a publish whose batch changed extreme statistics, once
  /// per affected profile-slot time range [begin_tod, end_tod) — the
  /// ResultCache's Δt-slot eviction hook (every QueryExecutor built over
  /// this manager with a cache registers itself). Fired on the publisher
  /// thread. Registration/removal is thread-safe at any time; a listener
  /// must be removed before whatever it captures dies.
  using InvalidationListener =
      std::function<void(int64_t begin_tod, int64_t end_tod)>;
  uint64_t AddInvalidationListener(InvalidationListener listener);
  void RemoveInvalidationListener(uint64_t id);

  /// Folds `batch` into a fork of the current profile, derives the new
  /// ConIndex (sharing unaffected slots), publishes the result as the next
  /// version, retires the old version to the epoch manager, and fires
  /// invalidation listeners for slots whose extremes changed. Returns the
  /// new version. Thread-safe against readers and other publishers.
  uint64_t Publish(std::span<const CoalescedUpdate> batch);

  /// Point-in-time counters.
  struct Stats {
    uint64_t published = 0;          ///< Publish calls
    uint64_t updates_applied = 0;    ///< coalesced updates folded
    uint64_t slots_invalidated = 0;  ///< slots fully dropped (fallback hit)
    /// Slots given a partial-invalidation overlay instead of a full drop
    /// (cell-only extreme changes — the common case once extremes
    /// saturate; unaffected tables keep serving).
    uint64_t slots_partially_invalidated = 0;
    uint64_t publishes_quiet = 0;    ///< publishes invalidating nothing
    // --- Prewarm (all zero when LiveProfileOptions::prewarm is off) ----------
    uint64_t prewarm_tasks = 0;          ///< background tasks scheduled
    uint64_t prewarm_tables_built = 0;   ///< tables rebuilt ahead of queries
    uint64_t prewarm_stale_skips = 0;    ///< tasks outrun by a newer version
  };
  Stats stats() const;

  /// Blocks until every prewarm task scheduled so far has finished (no-op
  /// when prewarm is off). Deterministic-test hook.
  void WaitForPrewarm();

  EpochManager& epoch_manager() { return *epochs_; }

 private:
  EpochManager* epochs_;
  LiveProfileOptions options_;
  /// Prewarm workers (null when off). Declared before the snapshot state
  /// it reads and reset first in the destructor, so no task can outlive a
  /// snapshot: each task holds an epoch pin only while running, and the
  /// destructor joins the pool before reclaiming.
  std::unique_ptr<ThreadPool> prewarm_pool_;
  std::atomic<const IndexSnapshot*> current_;
  std::atomic<uint64_t> version_{0};
  IndexSnapshot base_;  // version 0 (aliases the engine-built indexes)

  std::mutex publish_mu_;  // serializes publishers
  // Listener registry: mutated by executor construction/destruction while
  // the publisher fires entries, so guarded by its own mutex (held while
  // firing — eviction work is brief and publishers are already serial).
  mutable std::mutex listener_mu_;
  uint64_t next_listener_id_ = 1;
  std::vector<std::pair<uint64_t, InvalidationListener>> listeners_;

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> slots_invalidated_{0};
  std::atomic<uint64_t> slots_partially_invalidated_{0};
  std::atomic<uint64_t> publishes_quiet_{0};
  std::atomic<uint64_t> prewarm_tasks_{0};
  std::atomic<uint64_t> prewarm_tables_built_{0};
  std::atomic<uint64_t> prewarm_stale_skips_{0};
};

}  // namespace strr

#endif  // STRR_LIVE_LIVE_PROFILE_MANAGER_H_
