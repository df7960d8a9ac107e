#include "index/con_index.h"

#include <algorithm>

#include "search/expansion_context.h"
#include "search/frontier_engine.h"

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

ConIndex::SlotTables& ConIndex::EnsureTables(SegmentId seg,
                                             SlotId slot) const {
  SlotTables& bucket = *slots_[slot];
  {
    std::lock_guard<std::mutex> lock(bucket.mu);
    if (bucket.ready[seg]) return bucket;
  }
  ComputeTables(seg, slot, bucket);
  return bucket;
}

void ConIndex::ComputeTables(SegmentId seg, SlotId slot,
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

  FrontierEngine engine(*network_);
  auto ctx = ExpansionContextPool::Global().Acquire();
  engine.RunTimed(*ctx, request, max_speed);
  std::vector<SegmentId> far_list = engine.ReachedSorted(*ctx);
  engine.RunTimed(*ctx, request, min_speed);
  std::vector<SegmentId> near_list = engine.ReachedSorted(*ctx);

  std::lock_guard<std::mutex> lock(bucket.mu);
  if (bucket.ready[seg]) return;  // lost a race; keep the first result
  bucket.far[seg] = std::move(far_list);
  bucket.near[seg] = std::move(near_list);
  bucket.ready[seg] = 1;
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
    const std::vector<PartialInvalidation>& partial) const {
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
      if (affected) next.use_base[seg] = 0;
    }
    clone->slots_[p.slot] = MakeBucket();
    clone->overlays_[p.slot] = std::move(next);
  }
  return clone;
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

}  // namespace strr
