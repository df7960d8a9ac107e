#include "core/wfq_admission.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace strr {

namespace {

// Parked callers across every controller in the process.
obs::Gauge& QueuedGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("strr_admission_queued");
  return g;
}

obs::Counter& WaitsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_admission_waits_total");
  return c;
}

}  // namespace

WfqAdmissionController::WfqAdmissionController(const WfqOptions& options,
                                               TenantRegistry* registry)
    : max_inflight_(options.max_inflight),
      batch_share_(std::clamp(options.batch_share, 0.0, 1.0)),
      registry_(registry) {
  global_batch_cap_ = std::max<size_t>(
      static_cast<size_t>(static_cast<double>(max_inflight_) * batch_share_),
      1);
  global_batch_cap_ =
      std::min(global_batch_cap_, std::max<size_t>(max_inflight_, 1));
}

size_t WfqAdmissionController::QuotaForLocked(
    TenantId /*tenant*/, const TenantConfig& config) const {
  if (config.max_inflight == 0) return max_inflight_;
  return std::min(config.max_inflight, max_inflight_);
}

size_t WfqAdmissionController::QuotaFor(TenantId tenant) const {
  return QuotaForLocked(tenant, registry_->config(tenant));
}

WfqAdmissionController::TenantQueue& WfqAdmissionController::QueueForLocked(
    TenantId tenant) {
  auto [it, inserted] = queues_.try_emplace(tenant);
  if (inserted) it->second = std::make_unique<TenantQueue>();
  return *it->second;
}

Status WfqAdmissionController::Admit(TenantId tenant) {
  if (!enabled()) return Status::OK();
  TenantConfig config = registry_->config(tenant);
  std::unique_lock<std::mutex> lock(mu_);
  TenantQueue& q = QueueForLocked(tenant);
  size_t quota = QuotaForLocked(tenant, config);
  // Fast path: a free ticket under both caps with no queued neighbours
  // from this tenant (FIFO within a tenant). Waiters of OTHER tenants can
  // only be quota-parked when global tickets are free (DispatchLocked
  // drains every grantable waiter before returning), so taking a ticket
  // here never jumps a dispatchable queue.
  if (q.waiters.empty() && inflight_ < max_inflight_ && q.inflight < quota) {
    ++inflight_;
    ++q.inflight;
    ++stats_.admitted;
    registry_->RecordAdmission(tenant);
    return Status::OK();
  }
  if (q.waiters.size() >= config.max_queued) {
    ++stats_.shed;
    registry_->RecordShed(tenant);
    return Status::ResourceExhausted(
        "tenant " + std::to_string(tenant) + " admission queue full: " +
        std::to_string(q.inflight) + " in flight (quota " +
        std::to_string(quota) + "), " + std::to_string(q.waiters.size()) +
        " waiting (bound " + std::to_string(config.max_queued) +
        "), global " + std::to_string(inflight_) + "/" +
        std::to_string(max_inflight_));
  }
  Waiter waiter;
  q.waiters.push_back(&waiter);
  ++waiting_;
  if (!q.in_ring) {
    q.in_ring = true;
    ring_.push_back(tenant);
  }
  // Granted by DispatchLocked (which also does all the accounting); the
  // dispatcher never touches the node again after setting granted, so the
  // stack frame is safe to unwind once this returns.
  WaitsCounter().Add();
  QueuedGauge().Add(1);
  waiter.cv.wait(lock, [&] { return waiter.granted; });
  QueuedGauge().Add(-1);
  return Status::OK();
}

Status WfqAdmissionController::TryAdmitBatch(TenantId tenant) {
  if (!enabled()) return Status::OK();
  TenantConfig config = registry_->config(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  TenantQueue& q = QueueForLocked(tenant);
  size_t quota = QuotaForLocked(tenant, config);
  // Batch fair share composed per-tenant: batches are capped against the
  // global pool AND against the tenant's own quota, so one tenant's
  // batches can starve neither other tenants nor its own singles.
  size_t tenant_batch_cap = std::max<size_t>(
      static_cast<size_t>(static_cast<double>(quota) * batch_share_), 1);
  tenant_batch_cap = std::min(tenant_batch_cap, std::max<size_t>(quota, 1));
  if (inflight_ >= max_inflight_ || batch_inflight_ >= global_batch_cap_ ||
      q.inflight >= quota || q.batch_inflight >= tenant_batch_cap) {
    ++stats_.shed;
    registry_->RecordShed(tenant);
    return Status::ResourceExhausted(
        "tenant " + std::to_string(tenant) + " batch over capacity: " +
        std::to_string(q.inflight) + " in flight (" +
        std::to_string(q.batch_inflight) + " batch, tenant caps " +
        std::to_string(quota) + "/" + std::to_string(tenant_batch_cap) +
        "), global " + std::to_string(inflight_) + "/" +
        std::to_string(max_inflight_) + " (" +
        std::to_string(batch_inflight_) + " batch, cap " +
        std::to_string(global_batch_cap_) + ")");
  }
  ++inflight_;
  ++batch_inflight_;
  ++q.inflight;
  ++q.batch_inflight;
  ++stats_.admitted;
  registry_->RecordAdmission(tenant);
  return Status::OK();
}

void WfqAdmissionController::Release(TenantId tenant) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  TenantQueue& q = QueueForLocked(tenant);
  if (inflight_ > 0) --inflight_;
  if (q.inflight > 0) --q.inflight;
  registry_->RecordRelease(tenant);
  DispatchLocked();
}

void WfqAdmissionController::ReleaseBatch(TenantId tenant) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  TenantQueue& q = QueueForLocked(tenant);
  if (inflight_ > 0) --inflight_;
  if (batch_inflight_ > 0) --batch_inflight_;
  if (q.inflight > 0) --q.inflight;
  if (q.batch_inflight > 0) --q.batch_inflight;
  registry_->RecordRelease(tenant);
  DispatchLocked();
}

void WfqAdmissionController::RemoveFromRingLocked() {
  queues_[ring_[rr_pos_]]->in_ring = false;
  ring_.erase(ring_.begin() + static_cast<ptrdiff_t>(rr_pos_));
  // rr_pos_ now points at the element that slid into the removed slot — no
  // advance, so the slid-in tenant is not skipped. Removing the last
  // element wraps to the front: left past the end, the position would hand
  // the next turn to whichever tenant is appended next (typically the one
  // just removed, re-entering), jumping every tenant ahead of it.
  if (rr_pos_ >= ring_.size()) rr_pos_ = 0;
}

void WfqAdmissionController::GrantFrontLocked(TenantId tenant,
                                              TenantQueue& q) {
  Waiter* waiter = q.waiters.front();
  q.waiters.pop_front();
  --waiting_;
  waiter->granted = true;
  waiter->cv.notify_one();
  ++inflight_;
  ++q.inflight;
  ++stats_.admitted;
  registry_->RecordAdmission(tenant);
}

void WfqAdmissionController::DispatchLocked() {
  // Deficit round robin over the tenants with waiters. The ring position
  // and per-tenant deficits persist across calls: a tenant whose turn was
  // cut short by the global cap resumes its remaining credit on the next
  // free ticket, which is exactly what makes completion ratios track
  // weights under saturation.
  bool progress = true;
  while (progress && inflight_ < max_inflight_ && !ring_.empty()) {
    progress = false;
    const size_t visits = ring_.size();
    for (size_t v = 0; v < visits; ++v) {
      if (ring_.empty() || inflight_ >= max_inflight_) break;
      if (rr_pos_ >= ring_.size()) rr_pos_ = 0;
      TenantId tenant = ring_[rr_pos_];
      TenantQueue& q = *queues_[tenant];
      if (q.waiters.empty()) {
        // Drained tenants leave the ring at grant time; defensive only.
        q.deficit = 0;
        RemoveFromRingLocked();
        continue;
      }
      TenantConfig config = registry_->config(tenant);
      size_t quota = QuotaForLocked(tenant, config);
      if (q.inflight >= quota) {
        // Quota-parked: forfeit this visit without banking credit
        // (accruing deficit while unable to spend it would burst when the
        // quota frees) and advance so the ring never livelocks behind a
        // full tenant.
        q.deficit = 0;
        ++rr_pos_;
        continue;
      }
      const uint32_t weight = std::max<uint32_t>(config.weight, 1);
      if (q.deficit == 0) q.deficit = weight;
      while (q.deficit > 0 && !q.waiters.empty() &&
             inflight_ < max_inflight_ && q.inflight < quota) {
        GrantFrontLocked(tenant, q);
        --q.deficit;
        progress = true;
      }
      if (q.waiters.empty()) {
        q.deficit = 0;
        RemoveFromRingLocked();
        continue;
      }
      if (q.deficit == 0) {
        ++rr_pos_;  // visit fully spent; next tenant's turn
      } else {
        // The global cap (or this tenant's quota mid-drain) cut the turn
        // short. Keep the position and the remaining credit: the next
        // release resumes here. (If it was the quota, the next pass takes
        // the quota-parked branch and moves on.)
        break;
      }
    }
  }
}

WfqAdmissionController::Stats WfqAdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t WfqAdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

size_t WfqAdmissionController::inflight(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queues_.find(tenant);
  return it == queues_.end() ? 0 : it->second->inflight;
}

size_t WfqAdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

size_t WfqAdmissionController::queued(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queues_.find(tenant);
  return it == queues_.end() ? 0 : it->second->waiters.size();
}

}  // namespace strr
