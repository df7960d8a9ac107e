// WfqAdmissionController: per-tenant bounded ticket pools with a global
// cap, dispatched by deficit round robin — the query front door's one
// admission controller (QueryExecutor builds it whenever max_inflight >
// 0). Its contract: bounded in-flight, bounded waiting, typed
// ResourceExhausted shedding, batch plans never wait, admitted work always
// completes. Single-tenant traffic is the default-tenant case: one ticket
// pool of max_inflight, a waiting bound of the registry default's
// max_queued, and batches capped at batch_share of the pool. Tenants add:
//  * global cap — at most `max_inflight` tickets outstanding across all
//    tenants;
//  * per-tenant quota — a tenant holds at most its configured
//    max_inflight tickets (0 = bounded only by the global cap); a tenant
//    at quota queues or sheds against ITS OWN bounds while every other
//    tenant's admission is untouched;
//  * weighted fair dispatch — when tickets free up under saturation,
//    waiting singles are granted by deficit round robin over the tenants
//    with waiters: each visit credits a tenant `weight` grants, so a
//    weight-2 tenant drains ~2x a weight-1 tenant, and every tenant with
//    waiters is visited each cycle — no tenant starves no matter how
//    large the heaviest weight is;
//  * batch fair share composed per-tenant — batch plans take a ticket or
//    shed (never wait), capped both globally (batch_share of the global
//    cap) and per tenant (batch_share of the tenant's quota), so one
//    tenant's batches can starve neither other tenants nor its own
//    singles.
//
// Configuration (weight, quota, queue bound) and per-tenant counters live
// in the shared TenantRegistry; this class owns only the scheduling
// state. Scheduling state is PER CONTROLLER: when several executors share
// one registry, each executor's controller enforces quotas and weights
// over its own ticket pool — a tenant with quota q may hold q tickets in
// each executor (configs and counters are shared; in-flight arbitration
// is not). Waiting happens on caller threads, never on executor pool
// workers (QueryExecutor skips admission for work already on its own
// pool), so admission can never deadlock the pool against itself.
#ifndef STRR_CORE_WFQ_ADMISSION_H_
#define STRR_CORE_WFQ_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/tenant_registry.h"
#include "util/status.h"

namespace strr {

/// Scheduler knobs. Per-tenant weight/quota/queue bounds come from the
/// TenantRegistry, not from here.
struct WfqOptions {
  /// Max admitted-and-outstanding queries across all tenants. 0 disables
  /// admission (everything admits immediately).
  size_t max_inflight = 0;
  /// Fraction of a pool (global cap, and each tenant's quota) all batch
  /// work combined may hold, in (0, 1]; clamped so batches always get at
  /// least one ticket.
  double batch_share = 0.5;
  /// Cost-based DRR: charge each grant the tenant's measured average query
  /// cost in microseconds (EWMA of the costs passed to Release) instead of
  /// one count. Fairness then holds in CPU time, not grant counts — a
  /// tenant of 100x-costlier m-queries gets ~1/100th the grants of an
  /// equal-weight s-query tenant rather than an equal number.
  bool cost_based = false;
  /// Microseconds of credit one weight unit earns per DRR visit; also the
  /// charge for tenants with no measured cost yet.
  double cost_quantum_us = 10000.0;
};

/// See file comment. All methods are thread-safe. The registry must
/// outlive the controller.
class WfqAdmissionController {
 public:
  WfqAdmissionController(const WfqOptions& options, TenantRegistry* registry);

  bool enabled() const { return max_inflight_ > 0; }

  /// Admits one single query for `tenant`: grants a ticket immediately
  /// when one is free under both caps, waits in the tenant's bounded
  /// queue otherwise, or sheds with a ResourceExhausted naming the
  /// tenant. On OK the caller must eventually call Release(tenant)
  /// exactly once.
  Status Admit(TenantId tenant);

  /// Admits one batch plan for `tenant` without blocking: ticket or
  /// typed ResourceExhausted. On OK the caller must eventually call
  /// ReleaseBatch(tenant) exactly once.
  Status TryAdmitBatch(TenantId tenant);

  /// `cost_us` (>= 0) reports the query's measured execution cost in
  /// microseconds; it feeds the tenant's cost EWMA under cost-based DRR
  /// and is ignored otherwise. Pass a negative value when unmeasured.
  void Release(TenantId tenant, double cost_us = -1.0);
  void ReleaseBatch(TenantId tenant, double cost_us = -1.0);

  /// Tenant's average query cost estimate, microseconds (0 = no sample).
  double AvgCostUs(TenantId tenant) const;

  /// Aggregate counters across tenants (per-tenant breakdowns live in
  /// the registry).
  struct Stats {
    uint64_t admitted = 0;
    uint64_t shed = 0;
  };
  Stats stats() const;

  size_t inflight() const;
  size_t inflight(TenantId tenant) const;
  size_t queued() const;
  size_t queued(TenantId tenant) const;
  size_t max_inflight() const { return max_inflight_; }

  /// Effective per-tenant in-flight quota: the configured per-tenant
  /// max_inflight clamped to the global cap (0 = global cap).
  size_t QuotaFor(TenantId tenant) const;

 private:
  /// One caller blocked in Admit. Stack-allocated in the waiter's frame;
  /// the dispatcher pops it from the queue, marks it granted and
  /// notifies — after which it never touches the node again.
  struct Waiter {
    bool granted = false;
    std::condition_variable cv;
  };

  struct TenantQueue {
    std::deque<Waiter*> waiters;   ///< FIFO within one tenant
    size_t inflight = 0;           ///< tickets held (singles + batch)
    size_t batch_inflight = 0;     ///< tickets held by batch plans
    /// Deficit-round-robin credit: grants this tenant may still take in
    /// its current visit. Credited `weight` when a fresh visit starts
    /// (deficit == 0), decremented per grant, reset when the tenant's
    /// queue drains or it forfeits a visit at quota.
    uint32_t deficit = 0;
    /// Cost-based DRR credit, microseconds. Credited weight x quantum per
    /// visit; each grant is charged the tenant's average measured cost.
    /// Unspent credit carries across visits so queries costlier than one
    /// visit's credit still drain; reset on drain or quota-park.
    double deficit_us = 0.0;
    /// EWMA of measured query costs, microseconds (0 = no sample yet).
    double avg_cost_us = 0.0;
    bool in_ring = false;          ///< member of ring_
  };

  size_t QuotaForLocked(TenantId tenant, const TenantConfig& config) const;
  TenantQueue& QueueForLocked(TenantId tenant);

  /// Grants the tenant's front waiter one ticket (all accounting except
  /// deficit charging). Caller holds mu_.
  void GrantFrontLocked(TenantId tenant, TenantQueue& q);

  /// Folds a measured cost into the tenant's EWMA. Caller holds mu_.
  void RecordCostLocked(TenantQueue& q, double cost_us);

  /// Grants tickets to waiting singles by deficit round robin until the
  /// global cap is reached or no eligible waiter remains. Caller holds
  /// mu_. The ring position and deficits persist across calls — they ARE
  /// the WFQ state.
  void DispatchLocked();

  /// Removes ring_[rr_pos_] from the ring without advancing past the
  /// element that slides into its slot. Caller holds mu_.
  void RemoveFromRingLocked();

  size_t max_inflight_;
  double batch_share_;
  size_t global_batch_cap_;
  bool cost_based_;
  double cost_quantum_us_;
  TenantRegistry* registry_;

  mutable std::mutex mu_;
  std::unordered_map<TenantId, std::unique_ptr<TenantQueue>> queues_;
  /// Tenants that currently have waiters, in DRR visiting order.
  std::vector<TenantId> ring_;
  size_t rr_pos_ = 0;
  size_t inflight_ = 0;        ///< all outstanding tickets
  size_t batch_inflight_ = 0;  ///< tickets held by batch plans
  size_t waiting_ = 0;         ///< callers blocked across all tenants
  Stats stats_;
};

}  // namespace strr

#endif  // STRR_CORE_WFQ_ADMISSION_H_
