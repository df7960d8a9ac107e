#include "index/con_index.h"

#include <algorithm>

#include "search/expansion_context.h"
#include "search/frontier_engine.h"
#include "util/thread_pool.h"

namespace strr {

std::shared_ptr<ConIndex::SlotTables> ConIndex::MakeBucket() const {
  auto bucket = std::make_shared<SlotTables>();
  bucket->near.resize(network_->NumSegments());
  bucket->far.resize(network_->NumSegments());
  bucket->ready.assign(network_->NumSegments(), 0);
  return bucket;
}

ConIndex::ConIndex(const RoadNetwork& network, const SpeedProfile& profile,
                   const ConIndexOptions& options, bool allocate_buckets)
    : network_(&network), profile_(&profile), options_(options) {
  num_slots_ = profile.num_slots();
  slots_.resize(num_slots_);
  overlays_.resize(num_slots_);
  if (!allocate_buckets) return;
  for (auto& slot : slots_) slot = MakeBucket();
}

StatusOr<std::unique_ptr<ConIndex>> ConIndex::Create(
    const RoadNetwork& network, const SpeedProfile& profile,
    const ConIndexOptions& options) {
  if (!network.finalized()) {
    return Status::FailedPrecondition("ConIndex: network not finalized");
  }
  if (options.delta_t_seconds <= 0) {
    return Status::InvalidArgument("ConIndex: delta_t must be positive");
  }
  return std::unique_ptr<ConIndex>(new ConIndex(network, profile, options));
}

void ConIndex::ComputeTables(FrontierEngine& engine, ExpansionContext& ctx,
                             SegmentId seg, SlotId slot,
                             SlotTables& bucket) const {
  const int64_t slot_tod = static_cast<int64_t>(slot) *
                           profile_->slot_seconds();

  SpeedFn max_speed = [this, slot_tod](SegmentId id) {
    return profile_->MaxSpeed(id, slot_tod);
  };
  SpeedFn min_speed = [this, slot_tod](SegmentId id) {
    return profile_->MinSpeed(id, slot_tod);
  };

  FrontierEngine::TimedRequest request;
  request.sources = std::span<const SegmentId>(&seg, 1);
  request.budget = static_cast<double>(options_.delta_t_seconds);

  engine.RunTimed(ctx, request, max_speed);
  std::vector<SegmentId> far_list = engine.ReachedSorted(ctx);
  engine.RunTimed(ctx, request, min_speed);
  std::vector<SegmentId> near_list = engine.ReachedSorted(ctx);

  std::lock_guard<std::mutex> lock(bucket.mu);
  if (bucket.ready[seg]) return;  // lost a race; keep the first result
  bucket.far[seg] = std::move(far_list);
  bucket.near[seg] = std::move(near_list);
  bucket.ready[seg] = 1;
  ++bucket.ready_count;
}

ConIndex::SlotTables& ConIndex::EnsureTablesWith(FrontierEngine& engine,
                                                 ExpansionContext& ctx,
                                                 SegmentId seg,
                                                 SlotId slot) const {
  SlotTables& bucket = *slots_[slot];
  {
    std::lock_guard<std::mutex> lock(bucket.mu);
    if (bucket.ready[seg]) return bucket;
  }
  ComputeTables(engine, ctx, seg, slot, bucket);
  return bucket;
}

ConIndex::SlotTables& ConIndex::EnsureTables(SegmentId seg,
                                             SlotId slot) const {
  SlotTables& bucket = *slots_[slot];
  {
    std::lock_guard<std::mutex> lock(bucket.mu);
    if (bucket.ready[seg]) return bucket;
  }
  FrontierEngine engine(*network_);
  auto ctx = ExpansionContextPool::Global().Acquire();
  ComputeTables(engine, *ctx, seg, slot, bucket);
  return bucket;
}

const std::vector<SegmentId>& ConIndex::Far(SegmentId seg,
                                            int64_t time_of_day_sec) const {
  SlotId slot = SlotOfTimeOfDay(NormalizeTimeOfDay(time_of_day_sec),
                                profile_->slot_seconds());
  const SlotOverlay& overlay = overlays_[slot];
  if (overlay.base != nullptr && overlay.use_base[seg]) {
    return overlay.base->far[seg];  // write-once + ready at clone: no lock
  }
  return EnsureTables(seg, slot).far[seg];
}

const std::vector<SegmentId>& ConIndex::Near(SegmentId seg,
                                             int64_t time_of_day_sec) const {
  SlotId slot = SlotOfTimeOfDay(NormalizeTimeOfDay(time_of_day_sec),
                                profile_->slot_seconds());
  const SlotOverlay& overlay = overlays_[slot];
  if (overlay.base != nullptr && overlay.use_base[seg]) {
    return overlay.base->near[seg];
  }
  return EnsureTables(seg, slot).near[seg];
}

std::unique_ptr<ConIndex> ConIndex::CloneWithInvalidation(
    const SpeedProfile& profile, const std::vector<SlotId>& invalidated_slots,
    const std::vector<PartialInvalidation>& partial,
    std::vector<PartialInvalidation>* rebuild_out) const {
  if (rebuild_out != nullptr) rebuild_out->clear();
  // No bucket allocation in the constructor: unaffected slots alias this
  // index's buckets (materialized tables keep serving, future lazy fills
  // are shared both ways) and only invalidated slots pay a fresh one.
  auto clone = std::unique_ptr<ConIndex>(
      new ConIndex(*network_, profile, options_, /*allocate_buckets=*/false));
  for (SlotId slot = 0; slot < num_slots_; ++slot) {
    clone->slots_[slot] = slots_[slot];
    clone->overlays_[slot] = overlays_[slot];
  }
  for (SlotId slot : invalidated_slots) {
    if (slot < 0 || slot >= num_slots_) continue;
    clone->slots_[slot] = MakeBucket();
    clone->overlays_[slot] = SlotOverlay{};
  }

  for (const PartialInvalidation& p : partial) {
    if (p.slot < 0 || p.slot >= num_slots_ || p.changed.empty()) continue;
    // Probe set: the changed segments and their predecessors. A table
    // whose lists contain none of these (and is not a changed segment's
    // own) is provably bit-identical under the new profile — see the
    // header's completion-time argument.
    std::vector<SegmentId> probe = p.changed;
    for (SegmentId changed : p.changed) {
      if (changed >= network_->NumSegments()) continue;
      const auto& preds = network_->IncomingOf(changed);
      probe.insert(probe.end(), preds.begin(), preds.end());
    }
    std::sort(probe.begin(), probe.end());
    probe.erase(std::unique(probe.begin(), probe.end()), probe.end());

    // Start from what the previous generation could serve: its overlay
    // bitmap, or a ready snapshot of the plain bucket. `base` stays the
    // lineage's last fully-built bucket, so use_base only ever shrinks —
    // repeated partial hits never chain overlays.
    const SlotOverlay& prev = overlays_[p.slot];
    SlotOverlay next;
    if (prev.base != nullptr) {
      next.base = prev.base;
      next.use_base = prev.use_base;
    } else {
      next.base = slots_[p.slot];
      std::lock_guard<std::mutex> lock(next.base->mu);
      next.use_base = next.base->ready;
    }
    auto in_lists = [&](SegmentId seg, SegmentId q) {
      return std::binary_search(next.base->near[seg].begin(),
                                next.base->near[seg].end(), q) ||
             std::binary_search(next.base->far[seg].begin(),
                                next.base->far[seg].end(), q);
    };
    std::vector<SegmentId> flipped;
    for (SegmentId seg = 0; seg < network_->NumSegments(); ++seg) {
      if (!next.use_base[seg]) continue;
      bool affected =
          std::binary_search(p.changed.begin(), p.changed.end(), seg);
      if (!affected) {
        for (SegmentId q : probe) {
          if (in_lists(seg, q)) {
            affected = true;
            break;
          }
        }
      }
      if (affected) {
        next.use_base[seg] = 0;
        flipped.push_back(seg);
      }
    }
    if (rebuild_out != nullptr) {
      // The prewarm work list: every table that was serving in this
      // generation but must rebuild lazily in the clone. That is the
      // newly flipped base tables PLUS whatever this generation's own
      // per-generation bucket had materialized (earlier flips, lazy
      // fills) — the clone starts that bucket fresh, so those tables are
      // knocked out again even though this publish didn't touch them.
      {
        SlotTables& prev_bucket = *slots_[p.slot];
        std::lock_guard<std::mutex> lock(prev_bucket.mu);
        if (prev_bucket.ready_count > 0) {
          for (SegmentId seg = 0; seg < network_->NumSegments(); ++seg) {
            if (prev_bucket.ready[seg] && !next.use_base[seg]) {
              flipped.push_back(seg);
            }
          }
        }
      }
      std::sort(flipped.begin(), flipped.end());
      flipped.erase(std::unique(flipped.begin(), flipped.end()),
                    flipped.end());
      if (!flipped.empty()) {
        rebuild_out->push_back(
            PartialInvalidation{p.slot, std::move(flipped)});
      }
    }
    clone->slots_[p.slot] = MakeBucket();
    clone->overlays_[p.slot] = std::move(next);
  }
  return clone;
}

size_t ConIndex::PrewarmSlot(SlotId slot,
                             const std::vector<SegmentId>& segments) const {
  if (slot < 0 || slot >= num_slots_) return 0;
  FrontierEngine engine(*network_);
  auto ctx = ExpansionContextPool::Global().Acquire();
  SlotTables& bucket = *slots_[slot];
  size_t built = 0;
  for (SegmentId seg : segments) {
    if (seg >= network_->NumSegments()) continue;
    const SlotOverlay& overlay = overlays_[slot];
    if (overlay.base != nullptr && overlay.use_base[seg]) continue;
    {
      std::lock_guard<std::mutex> lock(bucket.mu);
      if (bucket.ready[seg]) continue;
    }
    ComputeTables(engine, *ctx, seg, slot, bucket);
    ++built;
  }
  return built;
}

Status ConIndex::BuildAll() {
  ThreadPool pool(options_.num_build_threads > 0 ? options_.num_build_threads
                                                 : 1);
  for (SlotId slot = 0; slot < num_slots_; ++slot) {
    pool.Submit([this, slot] {
      // One pooled context + engine per task: the whole slot builds with
      // zero per-table allocation beyond the stored lists themselves.
      FrontierEngine engine(*network_);
      auto ctx = ExpansionContextPool::Global().Acquire();
      const SlotOverlay& overlay = overlays_[slot];
      for (SegmentId seg = 0; seg < network_->NumSegments(); ++seg) {
        // Tables an overlay serves from its base are already built.
        if (overlay.base != nullptr && overlay.use_base[seg]) continue;
        EnsureTablesWith(engine, *ctx, seg, slot);
      }
    });
  }
  pool.Wait();
  return Status::OK();
}

size_t ConIndex::MaterializedTables() const {
  size_t count = 0;
  for (SlotId s = 0; s < num_slots_; ++s) {
    {
      std::lock_guard<std::mutex> lock(slots_[s]->mu);
      for (uint8_t r : slots_[s]->ready) count += r;
    }
    const SlotOverlay& overlay = overlays_[s];
    if (overlay.base != nullptr) {
      for (uint8_t u : overlay.use_base) count += u;
    }
  }
  return count;
}

size_t ConIndex::TotalListEntries() const {
  size_t count = 0;
  for (SlotId s = 0; s < num_slots_; ++s) {
    {
      const auto& slot = slots_[s];
      std::lock_guard<std::mutex> lock(slot->mu);
      for (size_t i = 0; i < slot->ready.size(); ++i) {
        if (slot->ready[i]) {
          count += slot->near[i].size() + slot->far[i].size();
        }
      }
    }
    const SlotOverlay& overlay = overlays_[s];
    if (overlay.base != nullptr) {
      for (size_t i = 0; i < overlay.use_base.size(); ++i) {
        if (overlay.use_base[i]) {
          count += overlay.base->near[i].size() +
                   overlay.base->far[i].size();
        }
      }
    }
  }
  return count;
}

}  // namespace strr
