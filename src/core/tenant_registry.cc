#include "core/tenant_registry.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

namespace strr {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

/// Parses a whole token as an unsigned decimal no larger than `max`.
/// Signs, junk and out-of-range values fail — `istream >> uint64_t` would
/// wrap "-1" to 2^64-1 and a later cast would truncate it.
bool ParseUnsigned(const std::string& token, uint64_t max, uint64_t* out) {
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end && *out <= max;
}
}  // namespace

TenantRegistry::TenantRegistry(const TenantConfig& defaults)
    : defaults_(defaults) {
  if (defaults_.weight == 0) defaults_.weight = 1;
}

TenantRegistry::~TenantRegistry() { StopFileWatch(); }

TenantRegistry::State* TenantRegistry::GetOrCreate(TenantId tenant) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (inserted) {
    it->second = std::make_unique<State>();
    it->second->config = defaults_;
  }
  return it->second.get();
}

void TenantRegistry::Configure(TenantId tenant, const TenantConfig& config) {
  GetOrCreate(tenant);  // ensure the entry exists
  std::unique_lock<std::shared_mutex> lock(mu_);
  State& state = *tenants_.at(tenant);
  state.config = config;
  if (state.config.weight == 0) state.config.weight = 1;
  state.configured = true;
}

TenantConfig TenantRegistry::config(TenantId tenant) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || !it->second->configured) return defaults_;
  return it->second->config;
}

Status TenantRegistry::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("tenant config: cannot open " + path);
  }
  // Parse everything before applying anything: a bad line must not leave
  // the registry half-reconfigured.
  std::vector<std::pair<TenantId, TenantConfig>> parsed;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    auto reject = [&](const std::string& why) {
      return Status::InvalidArgument("tenant config: " + path + ":" +
                                     std::to_string(line_no) + ": " + why);
    };
    std::string tokens[4];
    if (!(fields >> tokens[0])) continue;  // blank or comment-only line
    if (!(fields >> tokens[1] >> tokens[2] >> tokens[3])) {
      return reject("want `tenant weight max_inflight max_queued`");
    }
    std::string extra;
    if (fields >> extra) return reject("trailing field `" + extra + "`");
    // Junk must reject, or a typoed tenant id silently serves under
    // defaults; so must a value its field cannot hold.
    constexpr uint64_t kU32Max = std::numeric_limits<uint32_t>::max();
    constexpr uint64_t kSizeMax = std::numeric_limits<size_t>::max();
    static constexpr const char* kNames[4] = {"tenant id", "weight",
                                              "max_inflight", "max_queued"};
    const uint64_t kMax[4] = {kU32Max, kU32Max, kSizeMax, kSizeMax};
    uint64_t values[4];
    for (int i = 0; i < 4; ++i) {
      if (!ParseUnsigned(tokens[i], kMax[i], &values[i])) {
        return reject("`" + tokens[i] + "` is not a valid " + kNames[i] +
                      " (an integer in [0, " + std::to_string(kMax[i]) +
                      "])");
      }
    }
    TenantConfig config;
    config.weight = values[1] == 0 ? 1 : static_cast<uint32_t>(values[1]);
    config.max_inflight = static_cast<size_t>(values[2]);
    config.max_queued = static_cast<size_t>(values[3]);
    parsed.emplace_back(static_cast<TenantId>(values[0]), config);
  }
  for (const auto& [tenant, config] : parsed) {
    Configure(tenant, config);
  }
  reloads_.fetch_add(1, kRelaxed);
  return Status::OK();
}

Status TenantRegistry::StartFileWatch(const std::string& path,
                                      int64_t poll_ms) {
  StopFileWatch();
  Status initial = LoadFromFile(path);
  if (!initial.ok()) return initial;
  std::error_code ec;
  std::filesystem::file_time_type mtime =
      std::filesystem::last_write_time(path, ec);
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = false;
    watch_path_ = path;
    watch_mtime_ = ec ? std::filesystem::file_time_type{} : mtime;
  }
  if (poll_ms < 1) poll_ms = 1;
  watch_thread_ = std::thread([this, poll_ms] {
    std::unique_lock<std::mutex> lock(watch_mu_);
    for (;;) {
      watch_cv_.wait_for(lock, std::chrono::milliseconds(poll_ms),
                         [this] { return watch_stop_; });
      if (watch_stop_) return;
      std::error_code poll_ec;
      std::filesystem::file_time_type now =
          std::filesystem::last_write_time(watch_path_, poll_ec);
      if (poll_ec || now == watch_mtime_) continue;
      watch_mtime_ = now;
      std::string path_copy = watch_path_;
      lock.unlock();
      // A mid-write read may parse garbage; the parse-then-apply contract
      // makes that a harmless skipped reload, retried next poll via the
      // writer's final mtime bump.
      (void)LoadFromFile(path_copy);
      lock.lock();
    }
  });
  return Status::OK();
}

void TenantRegistry::StopFileWatch() {
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watch_thread_.joinable()) watch_thread_.join();
}

void TenantRegistry::RecordAdmission(TenantId tenant) {
  State* state = GetOrCreate(tenant);
  state->admitted.fetch_add(1, kRelaxed);
  state->inflight.fetch_add(1, kRelaxed);
}

void TenantRegistry::RecordRelease(TenantId tenant) {
  State* state = GetOrCreate(tenant);
  // Floor at zero defensively; callers pair releases with grants.
  uint64_t current = state->inflight.load(kRelaxed);
  while (current > 0 &&
         !state->inflight.compare_exchange_weak(current, current - 1,
                                                kRelaxed, kRelaxed)) {
  }
}

void TenantRegistry::RecordShed(TenantId tenant) {
  GetOrCreate(tenant)->shed.fetch_add(1, kRelaxed);
}

void TenantRegistry::RecordCacheHit(TenantId tenant) {
  GetOrCreate(tenant)->cache_hits.fetch_add(1, kRelaxed);
}

void TenantRegistry::RecordCacheMiss(TenantId tenant) {
  GetOrCreate(tenant)->cache_misses.fetch_add(1, kRelaxed);
}

void TenantRegistry::RecordCompletion(TenantId tenant,
                                      const StorageStats& io) {
  State* state = GetOrCreate(tenant);
  state->completed.fetch_add(1, kRelaxed);
  state->io_disk_page_reads.fetch_add(io.disk_page_reads, kRelaxed);
  state->io_disk_page_writes.fetch_add(io.disk_page_writes, kRelaxed);
  state->io_cache_hits.fetch_add(io.cache_hits, kRelaxed);
  state->io_cache_misses.fetch_add(io.cache_misses, kRelaxed);
  state->io_evictions.fetch_add(io.evictions, kRelaxed);
}

TenantCounters TenantRegistry::Load(TenantId tenant, const State& state) {
  TenantCounters out;
  out.tenant = tenant;
  out.admitted = state.admitted.load(kRelaxed);
  out.shed = state.shed.load(kRelaxed);
  out.completed = state.completed.load(kRelaxed);
  out.cache_hits = state.cache_hits.load(kRelaxed);
  out.cache_misses = state.cache_misses.load(kRelaxed);
  out.inflight = static_cast<size_t>(state.inflight.load(kRelaxed));
  out.io.disk_page_reads = state.io_disk_page_reads.load(kRelaxed);
  out.io.disk_page_writes = state.io_disk_page_writes.load(kRelaxed);
  out.io.cache_hits = state.io_cache_hits.load(kRelaxed);
  out.io.cache_misses = state.io_cache_misses.load(kRelaxed);
  out.io.evictions = state.io_evictions.load(kRelaxed);
  return out;
}

TenantCounters TenantRegistry::counters(TenantId tenant) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    TenantCounters empty;
    empty.tenant = tenant;
    return empty;
  }
  return Load(tenant, *it->second);
}

std::vector<TenantCounters> TenantRegistry::Snapshot() const {
  std::vector<TenantCounters> out;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    out.reserve(tenants_.size());
    for (const auto& [id, state] : tenants_) {
      out.push_back(Load(id, *state));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TenantCounters& a, const TenantCounters& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

}  // namespace strr
