// Tests for the multi-tenant query front door: TenantRegistry config /
// accounting, WfqAdmissionController quota isolation and deficit-round-
// robin dispatch (deterministic grant-order and weighted completion-ratio
// properties, no-starvation), executor-level tenancy (typed per-tenant
// shedding, tenant-scoped vs shared caching, exact default-tenant
// counters for single-tenant traffic), per-tenant front_door_stats()
// aggregation under concurrent mixed-tenant load, and a TSan hammer
// mixing tenants with live ingestion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/query_executor.h"
#include "core/reachability_engine.h"
#include "core/tenant_registry.h"
#include "core/wfq_admission.h"
#include "query/query_plan.h"
#include "tests/test_util.h"

namespace strr {
namespace {

using testing_util::GetSharedStack;
using testing_util::MakeTempDir;

/// A standalone executor over the shared stack. It owns a private tenant
/// registry, so configs and counters start from zero in every test
/// (MakeExecutor would share the engine-wide registry).
std::unique_ptr<QueryExecutor> MakeStandaloneExecutor(
    const QueryExecutorOptions& options) {
  ReachabilityEngine& engine = *GetSharedStack().engine;
  return std::make_unique<QueryExecutor>(
      engine.network(), engine.st_index(), *engine.live_manager(),
      engine.delta_t_seconds(), options);
}

// --- TenantRegistry units ----------------------------------------------------

void WriteConfigFile(const std::string& path, const std::string& body) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << body;
  }
  // Rename so the watcher never reads a half-written file.
  std::filesystem::rename(tmp, path);
}

TEST(TenantRegistryTest, UnknownTenantsServeUnderDefaults) {
  TenantRegistry registry({.weight = 3, .max_inflight = 7, .max_queued = 9});
  TenantConfig config = registry.config(42);
  EXPECT_EQ(config.weight, 3u);
  EXPECT_EQ(config.max_inflight, 7u);
  EXPECT_EQ(config.max_queued, 9u);
  // Reading a config does not create per-tenant state.
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(TenantRegistryTest, ConfigureOverridesAndCountersAccumulate) {
  TenantRegistry registry;
  registry.Configure(2, {.weight = 0, .max_inflight = 4, .max_queued = 1});
  EXPECT_EQ(registry.config(2).weight, 1u);  // weight clamped to >= 1
  EXPECT_EQ(registry.config(2).max_inflight, 4u);

  registry.RecordAdmission(2);
  registry.RecordAdmission(2);
  registry.RecordRelease(2);
  registry.RecordShed(2);
  registry.RecordCacheHit(2);
  registry.RecordCacheMiss(2);
  StorageStats io;
  io.disk_page_reads = 5;
  io.cache_hits = 11;
  registry.RecordCompletion(2, io);

  TenantCounters counters = registry.counters(2);
  EXPECT_EQ(counters.tenant, 2u);
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.cache_misses, 1u);
  EXPECT_EQ(counters.inflight, 1u);
  EXPECT_EQ(counters.io.disk_page_reads, 5u);
  EXPECT_EQ(counters.io.cache_hits, 11u);

  registry.RecordAdmission(9);
  std::vector<TenantCounters> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].tenant, 2u);  // sorted by tenant id
  EXPECT_EQ(snapshot[1].tenant, 9u);
}

// --- WfqAdmissionController units --------------------------------------------

TEST(TenantRegistryTest, LoadFromFileParsesAndRejectsAtomically) {
  std::string dir = MakeTempDir("tenant_cfg");
  std::string path = dir + "/tenants.cfg";
  WriteConfigFile(path,
                  "# tenant weight max_inflight max_queued\n"
                  "1 4 16 8\n"
                  "\n"
                  "2 1 0 64\n");
  TenantRegistry registry;
  STRR_ASSERT_OK(registry.LoadFromFile(path));
  EXPECT_EQ(registry.config(1).weight, 4u);
  EXPECT_EQ(registry.config(1).max_inflight, 16u);
  EXPECT_EQ(registry.config(1).max_queued, 8u);
  EXPECT_EQ(registry.config(2).max_inflight, 0u);
  EXPECT_EQ(registry.reloads(), 1u);

  // A malformed line rejects the whole load and leaves configs untouched:
  // junk, negative numbers (which `>> uint64_t` wraps to 2^64-1) and
  // values beyond the 32-bit tenant id / weight fields.
  for (const char* bad : {"not a config line", "-1 1 0 64", "7 -1 0 64",
                          "7 4294967298 0 64", "4294967296 1 0 64",
                          "7 1 -3 64", "7 1 0 -64"}) {
    WriteConfigFile(path, std::string("1 9 9 9\n") + bad + "\n");
    Status status = registry.LoadFromFile(path);
    const std::string what = std::string(bad) + ": " + status.ToString();
    EXPECT_TRUE(status.IsInvalidArgument()) << what;
    EXPECT_NE(status.message().find(":2:"), std::string::npos) << what;
    EXPECT_EQ(registry.config(1).weight, 4u) << what << " (partial load)";
    EXPECT_EQ(registry.config(7).weight, 1u) << what;
    EXPECT_EQ(registry.reloads(), 1u) << what;
  }
  // The largest values each field holds still load.
  WriteConfigFile(path, "4294967295 4294967295 0 64\n");
  STRR_ASSERT_OK(registry.LoadFromFile(path));
  EXPECT_EQ(registry.config(4294967295u).weight, 4294967295u);

  EXPECT_FALSE(registry.LoadFromFile(dir + "/absent.cfg").ok());
}

TEST(TenantRegistryTest, ConfigMutationSweepLoadsOrRejectsTyped) {
  // Deterministic byte flips, truncations and insertions of a valid
  // config. Each mutant either loads or is a typed InvalidArgument, and a
  // rejected load leaves every tenant's config, and the set of tenants,
  // as it was.
  const std::string base =
      "# tenant weight max_inflight max_queued\n"
      "1 4 16 8\n"
      "\n"
      "2 1 0 64  # trailing comment\n"
      "4294967295 4294967295 18446744073709551615 0\n";
  std::vector<std::string> mutants;
  for (size_t i = 0; i < base.size(); ++i) {
    for (unsigned char mask : {0x01, 0x10, 0x20, 0x80, 0xff}) {
      std::string m = base;
      m[i] = static_cast<char>(static_cast<unsigned char>(m[i]) ^ mask);
      mutants.push_back(std::move(m));
    }
    for (char c : {'\0', '\n', ' ', '#', '-', '9', '\xff'}) {
      std::string m = base;
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(i), c);
      mutants.push_back(std::move(m));
    }
    mutants.push_back(base.substr(0, i));
  }

  const std::string path = MakeTempDir("tenant_mutate") + "/tenants.cfg";
  auto configs_of = [](const TenantRegistry& registry) {
    std::vector<std::tuple<TenantId, uint32_t, size_t, size_t>> out;
    for (const TenantCounters& c : registry.Snapshot()) {
      TenantConfig config = registry.config(c.tenant);
      out.emplace_back(c.tenant, config.weight, config.max_inflight,
                       config.max_queued);
    }
    return out;
  };
  size_t loaded = 0, rejected = 0;
  for (const std::string& mutant : mutants) {
    TenantRegistry registry;
    WriteConfigFile(path, base);
    STRR_ASSERT_OK(registry.LoadFromFile(path));
    const auto before = configs_of(registry);
    WriteConfigFile(path, mutant);
    Status status = registry.LoadFromFile(path);
    if (status.ok()) {
      ++loaded;
      EXPECT_EQ(registry.reloads(), 2u);
      for (const auto& [tenant, weight, inflight, queued] :
           configs_of(registry)) {
        EXPECT_GE(weight, 1u) << "tenant " << tenant;
      }
      continue;
    }
    ++rejected;
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_EQ(configs_of(registry), before) << status.ToString();
    EXPECT_EQ(registry.reloads(), 1u);
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(loaded, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(TenantRegistryTest, FileWatchReloadsUnderConcurrentTraffic) {
  std::string dir = MakeTempDir("tenant_watch");
  std::string path = dir + "/tenants.cfg";
  WriteConfigFile(path, "7 1 2 64\n");

  TenantRegistry registry;
  STRR_ASSERT_OK(registry.StartFileWatch(path, /*poll_ms=*/5));
  ASSERT_EQ(registry.reloads(), 1u) << "initial load is synchronous";
  EXPECT_EQ(registry.config(7).max_inflight, 2u);

  // Admission traffic (config reads plus paired admission / release
  // bumps) hammers the registry while the config is rewritten underneath
  // it — the reload path must never wedge or corrupt counters.
  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 4; ++t) {
    traffic.emplace_back([&] {
      while (!stop.load()) {
        (void)registry.config(7);
        registry.RecordAdmission(7);
        std::this_thread::yield();
        registry.RecordRelease(7);
      }
    });
  }

  // Rewrite until the watcher observes a new mtime (coarse-granularity
  // filesystems may need several attempts), then wait for the reload.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (registry.reloads() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    WriteConfigFile(path, "7 3 9 64\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& t : traffic) t.join();

  ASSERT_GE(registry.reloads(), 2u) << "watcher never picked up the rewrite";
  EXPECT_EQ(registry.config(7).weight, 3u);
  EXPECT_EQ(registry.config(7).max_inflight, 9u);
  EXPECT_EQ(registry.counters(7).inflight, 0u);
  registry.StopFileWatch();
  uint64_t settled = registry.reloads();
  WriteConfigFile(path, "7 5 5 5\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(registry.reloads(), settled) << "stopped watcher kept reloading";
}

TEST(TenantRegistryTest, EngineWiresConfigFileIntoRegistry) {
  auto& stack = GetSharedStack();
  std::string dir = MakeTempDir("tenant_engine_cfg");
  std::string path = dir + "/tenants.cfg";
  WriteConfigFile(path, "3 2 8 16\n");

  EngineOptions opt;
  opt.work_dir = MakeTempDir("tenant_engine");
  opt.delta_t_seconds = 300;
  opt.tenant_config_path = path;
  auto engine = ReachabilityEngine::Build(stack.dataset.network,
                                          *stack.dataset.store, opt);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  TenantRegistry* registry = (*engine)->tenant_registry();
  ASSERT_NE(registry, nullptr);
  // Every executor over the engine attributes to the one registry.
  EXPECT_EQ((*engine)->executor().tenant_registry(), registry);
  EXPECT_EQ((*engine)->MakeExecutor({.num_threads = 1})->tenant_registry(),
            registry);
  EXPECT_EQ((*engine)->tenant_registry()->config(3).weight, 2u);
  EXPECT_EQ((*engine)->tenant_registry()->config(3).max_inflight, 8u);
  EXPECT_GE((*engine)->tenant_registry()->reloads(), 1u);
}

TEST(WfqAdmissionTest, DisabledControllerAdmitsEverything) {
  TenantRegistry registry;
  WfqAdmissionController wfq({.max_inflight = 0}, &registry);
  EXPECT_FALSE(wfq.enabled());
  for (TenantId t = 0; t < 5; ++t) {
    EXPECT_TRUE(wfq.Admit(t).ok());
    EXPECT_TRUE(wfq.TryAdmitBatch(t).ok());
  }
  for (int i = 0; i < 100; ++i) {  // single-tenant traffic
    EXPECT_TRUE(wfq.Admit(kDefaultTenant).ok());
    EXPECT_TRUE(wfq.TryAdmitBatch(kDefaultTenant).ok());
  }
  EXPECT_EQ(wfq.stats().shed, 0u);
}

TEST(WfqAdmissionTest, QuotaExceededShedsTypedAndIsolated) {
  TenantRegistry registry;
  registry.Configure(1, {.weight = 1, .max_inflight = 2, .max_queued = 0});
  WfqAdmissionController wfq({.max_inflight = 8, .batch_share = 1.0},
                             &registry);

  EXPECT_TRUE(wfq.Admit(1).ok());
  EXPECT_TRUE(wfq.Admit(1).ok());
  Status over_quota = wfq.Admit(1);  // quota 2 reached, queue bound 0
  ASSERT_TRUE(over_quota.IsResourceExhausted()) << over_quota.ToString();
  EXPECT_NE(over_quota.message().find("tenant 1"), std::string::npos)
      << over_quota.ToString();

  // Other tenants are untouched by tenant 1's quota: the global pool
  // still has 6 free tickets.
  EXPECT_TRUE(wfq.Admit(2).ok());
  EXPECT_TRUE(wfq.Admit(3).ok());
  EXPECT_EQ(wfq.inflight(), 4u);
  EXPECT_EQ(wfq.inflight(1), 2u);

  EXPECT_EQ(registry.counters(1).shed, 1u);
  EXPECT_EQ(registry.counters(2).shed, 0u);
  EXPECT_EQ(registry.counters(1).inflight, 2u);

  wfq.Release(1);
  wfq.Release(1);
  wfq.Release(2);
  wfq.Release(3);
  EXPECT_EQ(wfq.inflight(), 0u);
  EXPECT_EQ(registry.counters(1).inflight, 0u);
}

TEST(WfqAdmissionTest, BatchFairShareComposesPerTenant) {
  TenantRegistry registry;
  registry.Configure(1, {.weight = 1, .max_inflight = 4, .max_queued = 0});
  WfqAdmissionController wfq({.max_inflight = 8, .batch_share = 0.5},
                             &registry);

  // Tenant 1: quota 4, so its batches hold at most 2 tickets.
  EXPECT_TRUE(wfq.TryAdmitBatch(1).ok());
  EXPECT_TRUE(wfq.TryAdmitBatch(1).ok());
  Status tenant_cap = wfq.TryAdmitBatch(1);
  ASSERT_TRUE(tenant_cap.IsResourceExhausted()) << tenant_cap.ToString();
  EXPECT_NE(tenant_cap.message().find("tenant 1"), std::string::npos);
  // Tenant 1 singles may still use the other half of its quota.
  EXPECT_TRUE(wfq.Admit(1).ok());
  EXPECT_TRUE(wfq.Admit(1).ok());

  // Global batch cap is 4 (0.5 * 8): tenant 2's batches get the rest.
  EXPECT_TRUE(wfq.TryAdmitBatch(2).ok());
  EXPECT_TRUE(wfq.TryAdmitBatch(2).ok());
  Status global_cap = wfq.TryAdmitBatch(3);
  ASSERT_TRUE(global_cap.IsResourceExhausted()) << global_cap.ToString();

  wfq.ReleaseBatch(1);
  wfq.ReleaseBatch(1);
  wfq.Release(1);
  wfq.Release(1);
  wfq.ReleaseBatch(2);
  wfq.ReleaseBatch(2);
  EXPECT_EQ(wfq.inflight(), 0u);
}

TEST(WfqAdmissionTest, DeficitRoundRobinGrantOrderFollowsWeights) {
  // One global ticket; tenant 10 weighs 2, tenant 20 weighs 1. With six
  // 10-waiters and three 20-waiters queued (in that ring order), the
  // grant sequence must be the DRR pattern 10 10 20 | 10 10 20 | 10 10 20
  // — each cycle credits a tenant `weight` grants. The single ticket
  // serializes grant -> record -> release, so the recorded order IS the
  // dispatch order.
  TenantRegistry registry;
  registry.Configure(10, {.weight = 2, .max_inflight = 0, .max_queued = 64});
  registry.Configure(20, {.weight = 1, .max_inflight = 0, .max_queued = 64});
  WfqAdmissionController wfq({.max_inflight = 1}, &registry);

  ASSERT_TRUE(wfq.Admit(99).ok());  // occupy the only ticket

  std::mutex order_mu;
  std::vector<TenantId> order;
  std::vector<std::thread> waiters;
  auto spawn_waiter = [&](TenantId tenant) {
    size_t queued_before = wfq.queued();
    waiters.emplace_back([&wfq, &order_mu, &order, tenant] {
      Status s = wfq.Admit(tenant);
      ASSERT_TRUE(s.ok()) << s.ToString();
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(tenant);
      }
      wfq.Release(tenant);
    });
    // Enqueue deterministically: wait until this waiter is parked so the
    // ring order (and FIFO position) is exactly the spawn order.
    while (wfq.queued() == queued_before) std::this_thread::yield();
  };
  for (int i = 0; i < 6; ++i) spawn_waiter(10);
  for (int i = 0; i < 3; ++i) spawn_waiter(20);

  wfq.Release(99);  // kick off the cascade
  for (auto& t : waiters) t.join();

  std::vector<TenantId> expected = {10, 10, 20, 10, 10, 20, 10, 10, 20};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(wfq.inflight(), 0u);
  EXPECT_EQ(wfq.queued(), 0u);
}

TEST(WfqAdmissionTest, TenantReenteringAtRingEndCannotJumpTheFront) {
  // Regression: when the tenant at the end of the DRR ring drained and
  // left it, the ring position stayed one past the end, so the same
  // tenant re-entering (appended at the end) took the next turn ahead of
  // the tenant at the front. Under saturation this starved a light
  // tenant for long stretches. One ticket; grants are recorded in order
  // and released from here, so the sequence is deterministic.
  TenantRegistry registry;
  WfqAdmissionController wfq({.max_inflight = 1}, &registry);
  ASSERT_TRUE(wfq.Admit(99).ok());  // occupy the only ticket

  std::mutex order_mu;
  std::vector<TenantId> order;
  std::vector<std::thread> waiters;
  auto spawn_waiter = [&](TenantId tenant) {
    size_t queued_before = wfq.queued();
    waiters.emplace_back([&wfq, &order_mu, &order, tenant] {
      ASSERT_TRUE(wfq.Admit(tenant).ok());
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tenant);
    });
    while (wfq.queued() == queued_before) std::this_thread::yield();
  };
  auto granted = [&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size();
  };
  auto release_and_await = [&](TenantId holder, size_t grants) {
    wfq.Release(holder);
    while (granted() < grants) std::this_thread::yield();
  };

  spawn_waiter(1);
  spawn_waiter(1);
  spawn_waiter(2);                // ring [1, 2]
  release_and_await(99, 1);       // tenant 1's turn
  release_and_await(1, 2);        // tenant 2's turn drains it off the ring
  spawn_waiter(2);                // tenant 2 re-enters at the ring end
  release_and_await(2, 3);        // the front tenant's turn, not 2's again
  release_and_await(order[2], 4);
  wfq.Release(order[3]);
  for (auto& t : waiters) t.join();

  std::vector<TenantId> expected = {1, 2, 1, 2};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(wfq.inflight(), 0u);
}

TEST(WfqAdmissionTest, CompletionRatioTracksWeightsUnderSaturation) {
  // Closed-loop saturation, weight 2 vs 1: the observed completion ratio
  // must match the weights within 20%. Each client holds its ticket
  // briefly so real queues form (on a single-core host a no-work loop
  // would let the first-scheduled tenant finish before the other even
  // starts), and counting only begins once BOTH tenants have waiters —
  // the fairness property is about the saturated regime, not the
  // scheduling of thread start-up.
  TenantRegistry registry;
  registry.Configure(1, {.weight = 2, .max_inflight = 0, .max_queued = 64});
  registry.Configure(2, {.weight = 1, .max_inflight = 0, .max_queued = 64});
  WfqAdmissionController wfq({.max_inflight = 2}, &registry);

  constexpr int kTargetTotal = 300;
  std::atomic<int> total{0};
  std::atomic<int> per_tenant[3] = {{0}, {0}, {0}};
  std::atomic<bool> counting{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (TenantId tenant : {1u, 2u}) {
    for (int i = 0; i < 4; ++i) {
      clients.emplace_back([&, tenant] {
        while (!stop.load()) {
          Status s = wfq.Admit(tenant);
          ASSERT_TRUE(s.ok()) << s.ToString();
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          if (counting.load()) {
            per_tenant[tenant].fetch_add(1);
            if (total.fetch_add(1) + 1 >= kTargetTotal) stop.store(true);
          }
          wfq.Release(tenant);
        }
      });
    }
  }
  while (wfq.queued(1) == 0 || wfq.queued(2) == 0) std::this_thread::yield();
  counting.store(true);
  for (auto& t : clients) t.join();

  double heavy = per_tenant[1].load();
  double light = per_tenant[2].load();
  ASSERT_GT(light, 0.0);
  double ratio = heavy / light;
  EXPECT_GE(ratio, 2.0 * 0.8) << "heavy " << heavy << " light " << light;
  EXPECT_LE(ratio, 2.0 * 1.2) << "heavy " << heavy << " light " << light;
  EXPECT_EQ(wfq.inflight(), 0u);
}

TEST(WfqAdmissionTest, HeavyWeightCannotStarveLightTenants) {
  TenantRegistry registry;
  registry.Configure(1, {.weight = 16, .max_inflight = 0, .max_queued = 64});
  registry.Configure(2, {.weight = 1, .max_inflight = 0, .max_queued = 64});
  registry.Configure(3, {.weight = 1, .max_inflight = 0, .max_queued = 64});
  WfqAdmissionController wfq({.max_inflight = 1}, &registry);

  constexpr int kTargetTotal = 200;
  std::atomic<int> total{0};
  std::atomic<int> per_tenant[4] = {{0}, {0}, {0}, {0}};
  std::atomic<bool> counting{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (TenantId tenant : {1u, 2u, 3u}) {
    for (int i = 0; i < 3; ++i) {
      clients.emplace_back([&, tenant] {
        while (!stop.load()) {
          Status s = wfq.Admit(tenant);
          ASSERT_TRUE(s.ok()) << s.ToString();
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          if (counting.load()) {
            per_tenant[tenant].fetch_add(1);
            if (total.fetch_add(1) + 1 >= kTargetTotal) stop.store(true);
          }
          wfq.Release(tenant);
        }
      });
    }
  }
  while (wfq.queued(1) == 0 || wfq.queued(2) == 0 || wfq.queued(3) == 0) {
    std::this_thread::yield();
  }
  counting.store(true);
  for (auto& t : clients) t.join();

  // DRR visits every tenant with waiters each cycle: the weight-16
  // tenant dominates but can never zero the others out.
  EXPECT_GT(per_tenant[1].load(), per_tenant[2].load());
  EXPECT_GT(per_tenant[2].load(), 0);
  EXPECT_GT(per_tenant[3].load(), 0);
}

// --- Executor-level tenancy --------------------------------------------------

TEST(TenantFairnessExecutorTest, WeightedThroughputUnderSaturation) {
  auto& stack = GetSharedStack();
  auto plan = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(11), 600, 0.2}, QueryStrategy::kIndexed,
      /*tenant=*/1);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  QueryPlan heavy_plan = *plan;  // tenant 1, weight 2
  QueryPlan light_plan = *plan;
  light_plan.tenant = 2;

  QueryExecutorOptions opt;
  opt.num_threads = 1;
  opt.max_inflight = 2;
  auto executor = MakeStandaloneExecutor(opt);
  ASSERT_NE(executor->wfq_admission(), nullptr);
  TenantRegistry* registry = executor->tenant_registry();
  ASSERT_NE(registry, nullptr);
  registry->Configure(1, {.weight = 2, .max_inflight = 0, .max_queued = 64});
  registry->Configure(2, {.weight = 1, .max_inflight = 0, .max_queued = 64});

  constexpr int kTargetTotal = 90;
  std::atomic<int> total{0};
  std::atomic<int> per_tenant[3] = {{0}, {0}, {0}};
  std::atomic<bool> counting{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  // Enough clients per tenant that both admission queues stay non-empty
  // for the whole counting window (a drained queue forfeits DRR turns,
  // which is correct behavior but not the saturated regime under test).
  for (const QueryPlan* p : {&heavy_plan, &light_plan}) {
    for (int i = 0; i < 6; ++i) {
      clients.emplace_back([&, p] {
        while (!stop.load()) {
          auto result = executor->Execute(*p);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          if (counting.load()) {
            per_tenant[p->tenant].fetch_add(1);
            if (total.fetch_add(1) + 1 >= kTargetTotal) stop.store(true);
          }
        }
      });
    }
  }
  // Count only in the saturated regime: fairness is a property of how
  // queued demand drains, not of which client thread got scheduled first.
  WfqAdmissionController* wfq = executor->wfq_admission();
  while (wfq->queued(1) == 0 || wfq->queued(2) == 0) {
    std::this_thread::yield();
  }
  counting.store(true);
  for (auto& t : clients) t.join();

  double heavy = per_tenant[1].load();
  double light = per_tenant[2].load();
  ASSERT_GT(light, 0.0);
  double ratio = heavy / light;
  EXPECT_GE(ratio, 2.0 * 0.8) << "heavy " << heavy << " light " << light;
  EXPECT_LE(ratio, 2.0 * 1.2) << "heavy " << heavy << " light " << light;

  // Registry completions cover at least the counted window (they also
  // include the pre-saturation warm-up queries).
  EXPECT_GE(registry->counters(1).completed,
            static_cast<uint64_t>(per_tenant[1].load()));
  EXPECT_GE(registry->counters(2).completed,
            static_cast<uint64_t>(per_tenant[2].load()));
  EXPECT_EQ(registry->counters(1).inflight, 0u);
  EXPECT_EQ(registry->counters(2).inflight, 0u);
}

TEST(TenantFairnessExecutorTest, QuotaShedsTypedWhileOtherTenantIsServed) {
  auto& stack = GetSharedStack();
  auto plan = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(10), 600, 0.2}, QueryStrategy::kIndexed,
      /*tenant=*/7);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto reference = stack.engine->executor().Execute(*plan);
  ASSERT_TRUE(reference.ok());

  QueryExecutorOptions opt;
  opt.num_threads = 4;
  opt.max_inflight = 8;
  opt.batch_share = 1.0;
  auto executor = MakeStandaloneExecutor(opt);
  TenantRegistry* registry = executor->tenant_registry();
  registry->Configure(7, {.weight = 1, .max_inflight = 1, .max_queued = 0});

  // Tenant 7 floods a 24-plan batch against a quota of one; tenant 8
  // keeps issuing singles throughout and must never shed.
  std::vector<QueryPlan> flood(24, *plan);
  QueryPlan other = *plan;
  other.tenant = 8;
  std::atomic<int> other_failures{0};
  std::thread other_client([&] {
    for (int i = 0; i < 6; ++i) {
      auto r = executor->Execute(other);
      if (!r.ok()) other_failures.fetch_add(1);
    }
  });
  auto results = executor->ExecuteBatch(flood);
  other_client.join();

  size_t ok = 0, shed = 0;
  for (const auto& r : results) {
    if (r.ok()) {
      ++ok;
      EXPECT_EQ(r->segments, reference->segments);
    } else {
      ++shed;
      ASSERT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
      EXPECT_NE(r.status().message().find("tenant 7"), std::string::npos)
          << r.status().ToString();
    }
  }
  EXPECT_EQ(ok + shed, flood.size());
  EXPECT_GE(ok, 1u);
  EXPECT_GE(shed, 1u) << "quota of 1 never shed a 24-plan flood";
  EXPECT_EQ(other_failures.load(), 0)
      << "tenant 8 was shed by tenant 7's quota";
  EXPECT_EQ(registry->counters(7).shed, shed);
  EXPECT_EQ(registry->counters(8).shed, 0u);
  EXPECT_EQ(executor->wfq_admission()->inflight(), 0u);
}

TEST(TenantFairnessExecutorTest, TenantScopedCacheIsolatesTenants) {
  auto& stack = GetSharedStack();
  auto plan = stack.engine->planner().PlanSQuery(
      {stack.dataset.center, HMS(11), 600, 0.2}, QueryStrategy::kIndexed,
      /*tenant=*/1);
  ASSERT_TRUE(plan.ok());
  QueryPlan t1 = *plan;
  QueryPlan t2 = *plan;
  t2.tenant = 2;

  // Cache entries are tenant-scoped: tenant 2 cannot hit tenant 1's.
  QueryExecutorOptions opt;
  opt.num_threads = 1;
  opt.result_cache_entries = 64;
  auto executor = MakeStandaloneExecutor(opt);
  ASSERT_TRUE(executor->Execute(t1).ok());
  auto second = executor->Execute(t2);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->stats.cache_hit);
  auto repeat = executor->Execute(t2);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->stats.cache_hit);
  QueryExecutor::FrontDoorStats stats = executor->front_door_stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  TenantRegistry* registry = executor->tenant_registry();
  EXPECT_EQ(registry->counters(1).cache_misses, 1u);
  EXPECT_EQ(registry->counters(2).cache_hits, 1u);
  EXPECT_EQ(registry->counters(2).cache_misses, 1u);
}

TEST(TenantFairnessExecutorTest, DefaultTenantFrontDoorCountsExactly) {
  // Single-tenant traffic is the default tenant of the one WFQ front
  // door. Six distinct plans, each run twice through a cached,
  // admission-gated executor: every first run misses, is admitted and
  // completes; every repeat hits without touching admission. The counts
  // below are the ones the former tenant-blind controller produced on the
  // same workload, and regions match the uncached engine executor.
  auto& stack = GetSharedStack();
  const QueryPlanner& planner = stack.engine->planner();
  std::vector<QueryPlan> plans;
  for (int i = 0; i < 6; ++i) {
    auto plan = planner.PlanSQuery(
        {stack.dataset.center, HMS(9 + i % 3), 600 + 120 * (i % 2), 0.2});
    ASSERT_TRUE(plan.ok());
    plans.push_back(*plan);
    plans.push_back(*plan);  // repeats exercise the cache path
  }

  QueryExecutorOptions opt;
  opt.num_threads = 1;
  opt.result_cache_entries = 64;
  opt.max_inflight = 4;
  auto executor = MakeStandaloneExecutor(opt);
  ASSERT_NE(executor->wfq_admission(), nullptr);

  for (size_t i = 0; i < plans.size(); ++i) {
    auto reference = stack.engine->executor().Execute(plans[i]);
    auto result = executor->Execute(plans[i]);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->segments, reference->segments);
    EXPECT_EQ(result->stats.cache_hit, i % 2 == 1) << "plan " << i;
  }
  QueryExecutor::FrontDoorStats stats = executor->front_door_stats();
  EXPECT_EQ(stats.cache_hits, 6u);
  EXPECT_EQ(stats.cache_misses, 6u);
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.shed, 0u);
  // The stats carry exactly one tenant: the default one.
  ASSERT_EQ(stats.tenants.size(), 1u);
  const TenantCounters& tenant = stats.tenants[0];
  EXPECT_EQ(tenant.tenant, kDefaultTenant);
  EXPECT_EQ(tenant.admitted, 6u);
  EXPECT_EQ(tenant.completed, 6u);
  EXPECT_EQ(tenant.cache_hits, 6u);
  EXPECT_EQ(tenant.cache_misses, 6u);
  EXPECT_EQ(tenant.shed, 0u);
  EXPECT_EQ(tenant.inflight, 0u);
}

// --- front_door_stats() aggregation under concurrent mixed-tenant load -------

TEST(TenantFairnessExecutorTest, StatsAggregateAcrossTenantsUnderLoad) {
  auto& stack = GetSharedStack();
  const QueryPlanner& planner = stack.engine->planner();
  Mbr box = stack.engine->network().BoundingBox();

  // One distinct plan per tenant (different locations / windows so the
  // I/O footprints differ) — each tenant's client repeats its own plan,
  // so hits, misses, completions and io all attribute cleanly.
  std::vector<QueryPlan> plans;
  for (TenantId tenant : {1u, 2u, 3u}) {
    double f = 0.35 + 0.1 * tenant;
    auto plan = planner.PlanSQuery(
        {{box.min_x() + box.Width() * f, box.min_y() + box.Height() * f},
         HMS(9 + tenant),
         600,
         0.2},
        QueryStrategy::kIndexed, tenant);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(*plan);
  }

  QueryExecutorOptions opt;
  opt.num_threads = 2;
  opt.result_cache_entries = 64;
  opt.max_inflight = 4;
  auto executor = MakeStandaloneExecutor(opt);
  TenantRegistry* registry = executor->tenant_registry();

  constexpr int kRoundsPerClient = 8;
  // Per-tenant sums of attributed io over *executed* results (cache hits
  // replay the original execution's stats and are not re-attributed).
  std::mutex io_mu;
  StorageStats executed_io[4];
  uint64_t executed_count[4] = {0, 0, 0, 0};
  std::vector<std::thread> clients;
  for (size_t p = 0; p < plans.size(); ++p) {
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&, p] {
        const QueryPlan& plan = plans[p];
        for (int round = 0; round < kRoundsPerClient; ++round) {
          auto result = executor->Execute(plan);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          if (!result->stats.cache_hit) {
            std::lock_guard<std::mutex> lock(io_mu);
            executed_io[plan.tenant] += result->stats.io;
            ++executed_count[plan.tenant];
          }
        }
      });
    }
  }
  for (auto& t : clients) t.join();

  QueryExecutor::FrontDoorStats stats = executor->front_door_stats();
  ASSERT_EQ(stats.tenants.size(), 3u);
  uint64_t hit_sum = 0, miss_sum = 0, admitted_sum = 0, shed_sum = 0;
  for (const TenantCounters& t : stats.tenants) {
    hit_sum += t.cache_hits;
    miss_sum += t.cache_misses;
    admitted_sum += t.admitted;
    shed_sum += t.shed;
    EXPECT_EQ(t.inflight, 0u);
    // ScopedIoCounters attribution is exact and disjoint per tenant: the
    // registry's io slice equals the sum of this tenant's executed
    // results, no matter how the tenants interleaved.
    EXPECT_EQ(t.completed, executed_count[t.tenant]) << "tenant " << t.tenant;
    EXPECT_EQ(t.io.disk_page_reads, executed_io[t.tenant].disk_page_reads)
        << "tenant " << t.tenant;
    EXPECT_EQ(t.io.cache_hits, executed_io[t.tenant].cache_hits)
        << "tenant " << t.tenant;
    EXPECT_EQ(t.io.cache_misses, executed_io[t.tenant].cache_misses)
        << "tenant " << t.tenant;
  }
  // Per-tenant counters sum to the globals.
  EXPECT_EQ(hit_sum, stats.cache_hits);
  EXPECT_EQ(miss_sum, stats.cache_misses);
  EXPECT_EQ(admitted_sum, stats.admitted);
  EXPECT_EQ(shed_sum, stats.shed);
  uint64_t served = hit_sum;
  for (int t = 1; t <= 3; ++t) served += executed_count[t];
  EXPECT_EQ(served, static_cast<uint64_t>(3 * 2 * kRoundsPerClient));
}

// --- Live-ingestion hammer ---------------------------------------------------

TEST(TenantFairnessLiveTest, MixedTenantHammerWithLiveIngestion) {
  // Three tenants with skewed weights query through a tenant-aware,
  // cached, admission-gated front door while an observation stream
  // publishes snapshot refreshes. Correctness bar: nothing fails (the
  // closed loop never exceeds quotas), every counter aggregates, and the
  // run is TSan-clean (this suite runs under TSan in CI).
  auto& stack = GetSharedStack();
  EngineOptions opt;
  opt.work_dir = MakeTempDir("tenant_live");
  opt.delta_t_seconds = 300;
  opt.query_threads = 2;
  opt.result_cache_entries = 128;
  opt.max_inflight_queries = 4;
  opt.live_ingestion = true;
  opt.live_batch_window_ms = 20;
  auto engine_or = ReachabilityEngine::Build(stack.dataset.network,
                                             *stack.dataset.store, opt);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  auto& engine = *engine_or;
  TenantRegistry* registry = engine->tenant_registry();
  ASSERT_NE(registry, nullptr);
  registry->Configure(1, {.weight = 4, .max_inflight = 3, .max_queued = 16});
  registry->Configure(2, {.weight = 2, .max_inflight = 2, .max_queued = 16});
  registry->Configure(3, {.weight = 1, .max_inflight = 2, .max_queued = 16});

  std::vector<QueryPlan> plans;
  for (TenantId tenant : {1u, 2u, 3u}) {
    auto plan = engine->planner().PlanSQuery(
        {stack.dataset.center, HMS(9 + tenant), 600, 0.2},
        QueryStrategy::kIndexed, tenant);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(*plan);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> local_served[4] = {{0}, {0}, {0}, {0}};
  std::vector<std::thread> workers;
  for (size_t p = 0; p < plans.size(); ++p) {
    for (int c = 0; c < 2; ++c) {
      workers.emplace_back([&, p] {
        const QueryPlan& plan = plans[p];
        while (!stop.load()) {
          auto result = engine->executor().Execute(plan);
          if (result.ok()) {
            local_served[plan.tenant].fetch_add(1);
          } else if (!result.status().IsResourceExhausted()) {
            failures.fetch_add(1);
          }
        }
      });
    }
  }
  std::thread feeder([&] {
    const RoadNetwork& network = engine->network();
    uint64_t i = 0;
    while (!stop.load()) {
      SegmentId seg = static_cast<SegmentId>(i % network.NumSegments());
      int64_t tod = static_cast<int64_t>((i * 977) % kSecondsPerDay);
      engine->OfferObservation({seg, tod, 6.0 + (i % 7)});
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  stop.store(true);
  for (auto& t : workers) t.join();
  feeder.join();

  EXPECT_EQ(failures.load(), 0);
  QueryExecutor::FrontDoorStats stats = engine->executor().front_door_stats();
  uint64_t hit_sum = 0, completed_sum = 0;
  for (const TenantCounters& t : stats.tenants) {
    hit_sum += t.cache_hits;
    completed_sum += t.completed;
    EXPECT_EQ(t.inflight, 0u) << "tenant " << t.tenant;
  }
  EXPECT_EQ(hit_sum, stats.cache_hits);
  uint64_t served_sum = 0;
  for (int t = 1; t <= 3; ++t) served_sum += local_served[t].load();
  EXPECT_EQ(hit_sum + completed_sum, served_sum);
  EXPECT_GT(served_sum, 0u);
}

}  // namespace
}  // namespace strr
