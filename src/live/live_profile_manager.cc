#include "live/live_profile_manager.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace strr {

namespace {

/// Fork-fold-swap latency of one snapshot publish, in µs.
obs::Histogram& PublishBuildHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "strr_live_snapshot_build_us");
  return h;
}
obs::Counter& PublishesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_live_publishes_total");
  return c;
}
obs::Counter& SlotsInvalidatedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_live_slots_invalidated_total");
  return c;
}
obs::Gauge& SnapshotVersionGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "strr_live_snapshot_version");
  return g;
}
/// Per-table prewarm rebuild latency, in µs.
obs::Histogram& PrewarmHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "strr_live_prewarm_us");
  return h;
}

}  // namespace

LiveProfileManager::LiveProfileManager(EpochManager& epochs,
                                       const SpeedProfile& base_profile,
                                       const ConIndex& base_con_index,
                                       const LiveProfileOptions& options)
    : epochs_(&epochs), options_(options) {
  base_.version = 0;
  base_.profile = &base_profile;
  base_.con_index = &base_con_index;
  current_.store(&base_);
  if (options_.prewarm) {
    prewarm_pool_ = std::make_unique<ThreadPool>(
        options_.prewarm_threads > 0 ? options_.prewarm_threads : 1);
  }
}

LiveProfileManager::~LiveProfileManager() {
  // Join prewarm tasks first: they pin epochs and read snapshots, so they
  // must drain before reclamation tears those down.
  prewarm_pool_.reset();
  // Shutdown contract: no readers pinned. Drain the grace period so every
  // superseded owned snapshot's deleter runs, then drop the current one
  // (owned unless we never published).
  epochs_->SynchronizeAndReclaim();
  const IndexSnapshot* last = current_.load();
  if (last != &base_) delete last;
}

void LiveProfileManager::WaitForPrewarm() {
  if (prewarm_pool_ != nullptr) prewarm_pool_->Wait();
}

SnapshotRef LiveProfileManager::Acquire() const {
  // Pin first, load second — the EpochManager ordering argument (see its
  // header) needs the pin visible before the pointer read.
  EpochManager::Pin pin = epochs_->Acquire();
  const IndexSnapshot* snap = current_.load();
  return SnapshotRef(std::move(pin), snap);
}

uint64_t LiveProfileManager::AddInvalidationListener(
    InvalidationListener listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  uint64_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void LiveProfileManager::RemoveInvalidationListener(uint64_t id) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == id) {
      listeners_.erase(it);
      return;
    }
  }
}

uint64_t LiveProfileManager::Publish(std::span<const CoalescedUpdate> batch) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  Stopwatch publish_watch;
  const IndexSnapshot* cur = current_.load();

  // Fork the profile and fold the batch, tracking which profile slots had
  // extreme (min/max) changes — only those need new Con-Index tables or
  // cache eviction; mean/count drift publishes quietly. Cell-only changes
  // invalidate partially (tables the changed segments can actually reach);
  // a level-fallback change shifts every observation-less segment of that
  // level, so its slot invalidates fully.
  auto profile = std::make_unique<SpeedProfile>(*cur->profile);
  const int64_t slot_sec = profile->slot_seconds();
  std::vector<SlotId> full_slots;
  std::map<SlotId, std::vector<SegmentId>> cell_changes;
  for (const CoalescedUpdate& u : batch) {
    uint8_t effect = profile->ApplyUpdate(u.segment, u.slot_tod, u.min_speed,
                                          u.max_speed, u.sum_speed, u.count);
    if (effect == SpeedProfile::kNoExtremeChange) continue;
    SlotId slot = SlotOfTimeOfDay(NormalizeTimeOfDay(u.slot_tod), slot_sec);
    if (effect & SpeedProfile::kFallbackExtremesChanged) {
      full_slots.push_back(slot);
    } else {
      cell_changes[slot].push_back(u.segment);
    }
  }
  std::sort(full_slots.begin(), full_slots.end());
  full_slots.erase(std::unique(full_slots.begin(), full_slots.end()),
                   full_slots.end());

  // Past a point, probing beats rebuilding no longer: degrade wide
  // partial hits to full invalidation. Degraded slots collect separately
  // and merge after the loop — full_slots must stay sorted while the
  // binary_search membership test below runs (a slot with both a
  // fallback and a cell change must resolve to FULL, never an overlay).
  constexpr size_t kMaxPartialChanges = 64;
  std::vector<ConIndex::PartialInvalidation> partial;
  std::vector<SlotId> degraded;
  for (auto& [slot, segments] : cell_changes) {
    if (std::binary_search(full_slots.begin(), full_slots.end(), slot)) {
      continue;  // already fully invalidated
    }
    std::sort(segments.begin(), segments.end());
    segments.erase(std::unique(segments.begin(), segments.end()),
                   segments.end());
    if (segments.size() > kMaxPartialChanges) {
      degraded.push_back(slot);
      continue;
    }
    partial.push_back(
        ConIndex::PartialInvalidation{slot, std::move(segments)});
  }
  full_slots.insert(full_slots.end(), degraded.begin(), degraded.end());
  std::sort(full_slots.begin(), full_slots.end());
  std::vector<SlotId> changed_slots = full_slots;  // for listener fan-out
  for (const auto& p : partial) changed_slots.push_back(p.slot);
  std::sort(changed_slots.begin(), changed_slots.end());

  // The rebuild list (per partial slot, the tables the overlay stopped
  // serving) is exactly what the prewarm workers should rebuild.
  std::vector<ConIndex::PartialInvalidation> rebuild;
  auto con_index = cur->con_index->CloneWithInvalidation(
      *profile, full_slots, partial,
      prewarm_pool_ != nullptr ? &rebuild : nullptr);

  auto* next = new IndexSnapshot();
  next->version = cur->version + 1;
  next->profile = profile.get();
  next->con_index = con_index.get();
  next->owned_profile = std::move(profile);
  next->owned_con_index = std::move(con_index);

  current_.store(next);
  version_.store(next->version);
  // Unpublished now; readers still pinned on `cur` keep it alive through
  // the grace period. The base snapshot aliases engine-owned indexes and
  // is never deleted.
  if (cur == &base_) {
    epochs_->Retire([] {});
  } else {
    epochs_->Retire([cur] { delete cur; });
  }

  published_.fetch_add(1);
  updates_applied_.fetch_add(batch.size());
  slots_invalidated_.fetch_add(full_slots.size());
  slots_partially_invalidated_.fetch_add(partial.size());
  if (changed_slots.empty()) publishes_quiet_.fetch_add(1);
  PublishesCounter().Add();
  SlotsInvalidatedCounter().Add(full_slots.size() + partial.size());
  SnapshotVersionGauge().Set(static_cast<int64_t>(next->version));
  if (obs::MetricsRegistry::Global().enabled()) {
    PublishBuildHistogram().Record(
        static_cast<uint64_t>(publish_watch.ElapsedMicros()));
  }

  {
    std::lock_guard<std::mutex> listeners_lock(listener_mu_);
    for (SlotId slot : changed_slots) {
      int64_t begin_tod = static_cast<int64_t>(slot) * slot_sec;
      for (const auto& [id, listener] : listeners_) {
        listener(begin_tod, begin_tod + slot_sec);
      }
    }
  }

  if (prewarm_pool_ != nullptr && !rebuild.empty()) {
    // Ingest-driven prewarm: rebuild the knocked-out tables on the new
    // snapshot before queries pay the lazy-build latency. Each task pins
    // the current snapshot; if a newer version already superseded the one
    // this batch targeted, the work list no longer describes that
    // snapshot's overlay, so the task skips (the newer publish scheduled
    // its own tasks).
    const uint64_t target_version = next->version;
    for (auto& p : rebuild) {
      prewarm_tasks_.fetch_add(1);
      prewarm_pool_->Submit(
          [this, target_version, slot = p.slot,
           segments = std::move(p.changed)] {
            SnapshotRef ref = Acquire();
            if (ref.version() != target_version) {
              prewarm_stale_skips_.fetch_add(1);
              return;
            }
            Stopwatch prewarm_watch;
            prewarm_tables_built_.fetch_add(
                ref.con_index().PrewarmSlot(slot, segments));
            if (obs::MetricsRegistry::Global().enabled()) {
              PrewarmHistogram().Record(
                  static_cast<uint64_t>(prewarm_watch.ElapsedMicros()));
            }
          });
    }
  }
  return next->version;
}

LiveProfileManager::Stats LiveProfileManager::stats() const {
  Stats out;
  out.published = published_.load();
  out.updates_applied = updates_applied_.load();
  out.slots_invalidated = slots_invalidated_.load();
  out.slots_partially_invalidated = slots_partially_invalidated_.load();
  out.publishes_quiet = publishes_quiet_.load();
  out.prewarm_tasks = prewarm_tasks_.load();
  out.prewarm_tables_built = prewarm_tables_built_.load();
  out.prewarm_stale_skips = prewarm_stale_skips_.load();
  return out;
}

}  // namespace strr
