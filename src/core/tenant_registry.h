// TenantRegistry: identity, configuration and accounting for the
// multi-tenant query front door.
//
// The front door serves many tenants (apps, fleets, API keys) with very
// different traffic shapes; single-tenant traffic is simply the default
// tenant. Every engine owns one registry, shared by all of its executors
// (a standalone executor creates a private one). It is the source of
// truth the tenant-aware pieces hang off:
//  * configuration — per-tenant WFQ weight, in-flight quota and waiting
//    bound, with a default config for tenants that never registered
//    explicitly (open admission: unknown tenants are served under the
//    defaults, not rejected);
//  * accounting — per-tenant admitted / shed / completed / cache
//    hit-miss / in-flight / storage-I/O counters, bumped by the
//    WfqAdmissionController (admission outcomes) and the QueryExecutor
//    (cache and completion attribution), surfaced through
//    QueryExecutor::front_door_stats().
//
// Thread-safe, and built for the hot path: per-tenant state lives behind
// stable pointers in a grow-only map guarded by a shared_mutex (shared
// lock for lookups, exclusive only for first-contact inserts, Configure
// and snapshots), and every counter is an atomic — concurrent bumps from
// many executors touch no exclusive lock, so attribution never
// serializes the cache-hit path. The registry never calls out, so
// callers may bump counters while holding their own locks.
#ifndef STRR_CORE_TENANT_REGISTRY_H_
#define STRR_CORE_TENANT_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "query/query.h"
#include "storage/page.h"
#include "util/status.h"

namespace strr {

/// Per-tenant front-door configuration.
struct TenantConfig {
  /// Weighted-fair-queueing weight: under saturation a weight-2 tenant
  /// drains ~2x the completions of a weight-1 tenant. Treated as >= 1.
  uint32_t weight = 1;
  /// Per-tenant quota on admitted-and-outstanding queries; 0 = bounded
  /// only by the scheduler's global cap. A tenant at its quota sheds (or
  /// queues) without touching any other tenant's tickets.
  size_t max_inflight = 0;
  /// Per-tenant bound on single-query callers waiting for admission;
  /// beyond it the tenant's own queries shed typed, other tenants
  /// unaffected.
  size_t max_queued = 64;
};

/// Point-in-time counters for one tenant (monotonic except inflight).
struct TenantCounters {
  TenantId tenant = kDefaultTenant;
  /// Admission tickets granted (singles + batch plans).
  uint64_t admitted = 0;
  /// Typed ResourceExhausted rejections charged to this tenant.
  uint64_t shed = 0;
  /// Queries executed to completion for this tenant (cache hits are
  /// served without executing and counted under cache_hits instead, so
  /// "queries served" = completed + cache_hits).
  uint64_t completed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Currently admitted-and-outstanding queries (0 when admission is
  /// unbounded).
  size_t inflight = 0;
  /// Storage traffic attributed to this tenant's completed queries, from
  /// the per-query ScopedIoCounters attribution — exact and disjoint
  /// across tenants even under concurrent execution.
  StorageStats io;
};

/// See file comment. All methods are thread-safe.
class TenantRegistry {
 public:
  /// `defaults` applies to every tenant that was never Configure()d.
  explicit TenantRegistry(const TenantConfig& defaults = {});

  /// Stops the config-file watcher, if one is running.
  ~TenantRegistry();

  /// Sets (or replaces) one tenant's configuration. Counters survive
  /// reconfiguration.
  void Configure(TenantId tenant, const TenantConfig& config);

  /// The tenant's configuration, or the registry defaults when it never
  /// registered.
  TenantConfig config(TenantId tenant) const;

  // --- Dynamic configuration -------------------------------------------------

  /// Replaces tenant configs from a text file: one whitespace-separated
  /// `tenant weight max_inflight max_queued` line per tenant, '#' starts
  /// a comment, blank lines ignored. Every field is an unsigned decimal
  /// within its field's range (tenant and weight are 32-bit). The whole
  /// file parses before any tenant is touched — a malformed line rejects
  /// the load with a line-numbered InvalidArgument and leaves every
  /// config as it was (counters always survive).
  Status LoadFromFile(const std::string& path);

  /// Starts a background thread that re-runs LoadFromFile whenever the
  /// file's mtime changes (polled every poll_ms). Loads the file once
  /// synchronously and fails if that load fails. One watcher per
  /// registry; call StopFileWatch (or destroy the registry) to stop.
  Status StartFileWatch(const std::string& path, int64_t poll_ms = 200);
  void StopFileWatch();

  /// Successful config loads (initial + reloads) since construction.
  uint64_t reloads() const { return reloads_.load(std::memory_order_relaxed); }

  // --- Counter bumps (lock-free once the tenant exists) ----------------------

  /// One ticket granted: bumps admitted and inflight together.
  void RecordAdmission(TenantId tenant);
  /// One ticket returned: decrements inflight.
  void RecordRelease(TenantId tenant);
  void RecordShed(TenantId tenant);
  void RecordCacheHit(TenantId tenant);
  void RecordCacheMiss(TenantId tenant);
  /// One query executed to completion; `io` is its attributed traffic.
  void RecordCompletion(TenantId tenant, const StorageStats& io);

  /// Counters for one tenant (zeroes if it was never seen).
  TenantCounters counters(TenantId tenant) const;

  /// Counters for every tenant ever seen (configured or counted),
  /// sorted by tenant id for stable output.
  std::vector<TenantCounters> Snapshot() const;

 private:
  struct State {
    /// Guarded by mu_ (shared read / exclusive write in Configure).
    TenantConfig config;
    bool configured = false;  ///< false = serving under defaults_

    // Counters: independent atomics, relaxed — each is a standalone
    // monotonic statistic; snapshots are per-counter consistent, which
    // is all the stats surface promises.
    std::atomic<uint64_t> admitted{0};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> inflight{0};
    std::atomic<uint64_t> io_disk_page_reads{0};
    std::atomic<uint64_t> io_disk_page_writes{0};
    std::atomic<uint64_t> io_cache_hits{0};
    std::atomic<uint64_t> io_cache_misses{0};
    std::atomic<uint64_t> io_evictions{0};
  };

  /// Stable pointer to the tenant's state, creating it on first contact.
  /// Shared-lock fast path; exclusive lock only on the first sighting of
  /// a tenant (entries are never erased, so returned pointers stay valid
  /// for the registry's lifetime and bumps happen outside any lock).
  State* GetOrCreate(TenantId tenant);

  /// Loads one state's counters into the plain snapshot form.
  static TenantCounters Load(TenantId tenant, const State& state);

  TenantConfig defaults_;
  mutable std::shared_mutex mu_;  ///< guards the map and config fields
  std::unordered_map<TenantId, std::unique_ptr<State>> tenants_;

  // Config-file watcher (StartFileWatch).
  std::atomic<uint64_t> reloads_{0};
  std::mutex watch_mu_;  ///< guards watch_* below and pairs with watch_cv_
  std::condition_variable watch_cv_;
  std::thread watch_thread_;
  bool watch_stop_ = false;
  std::string watch_path_;
  std::filesystem::file_time_type watch_mtime_{};
};

}  // namespace strr

#endif  // STRR_CORE_TENANT_REGISTRY_H_
