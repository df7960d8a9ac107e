#include "storage/buffer_pool.h"

#include <algorithm>
#include <iterator>

#include "storage/io_context.h"

namespace strr {

namespace {

/// Bumps the calling thread's attribution scope (if any) alongside the
/// pool-global counter. The shard lock is held by the caller, but `scope`
/// is thread-local to the requesting thread, so the two never race.
inline void Count(uint64_t StorageStats::* field) {
  if (StorageStats* scope = ScopedIoCounters::Current()) ++(scope->*field);
}

obs::Counter& PoolCounter(const char* name, const std::string& role) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (role.empty()) return registry.GetCounter(name);
  return registry.GetCounter(name, {{"role", role}});
}

uint64_t MixPageId(PageId id) {
  // splitmix64 finalizer: PageIds are sequential, the sketch rows and the
  // shard choice want well-spread bits.
  uint64_t x = id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BufferPool::BufferPool(FileManager* file, const BufferPoolOptions& options)
    : file_(file),
      options_(options),
      num_shards_(std::clamp<size_t>(options.capacity_pages / kFramesPerShard,
                                     1, kMaxShards)),
      shards_(std::make_unique<Shard[]>(num_shards_)),
      hits_counter_(PoolCounter("strr_bufferpool_hits_total", options.role)),
      misses_counter_(
          PoolCounter("strr_bufferpool_misses_total", options.role)),
      evictions_counter_(
          PoolCounter("strr_bufferpool_evictions_total", options.role)),
      admission_rejects_counter_(PoolCounter(
          "strr_bufferpool_admission_rejects_total", options.role)),
      lock_contended_counter_(PoolCounter(
          "strr_bufferpool_lock_contended_total", options.role)) {
  const double share = std::clamp(options_.protected_share, 0.0, 1.0);
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    // Split capacity evenly; the first (capacity % shards) shards take one
    // extra frame so the shards sum to exactly the configured capacity.
    s.capacity = options_.capacity_pages / num_shards_ +
                 (i < options_.capacity_pages % num_shards_ ? 1 : 0);
    if (options_.policy != CachePolicy::kTinyLfu || s.capacity == 0) continue;
    s.protected_cap =
        static_cast<size_t>(static_cast<double>(s.capacity) * share);
    // Probation keeps at least one frame so every page still enters
    // through it (and the admission contest has a victim to weigh).
    s.protected_cap = std::min(s.protected_cap, s.capacity - 1);
    // ~8 sketch counters per cached frame, the ResultCache density.
    s.sketch = std::make_unique<FrequencySketch>(s.capacity * 8);
  }
}

BufferPool::Shard& BufferPool::ShardFor(PageId id) const {
  // High bits pick the shard; the sketch remixes the full hash per row.
  return shards_[(MixPageId(id) >> 32) % num_shards_];
}

std::unique_lock<std::mutex> BufferPool::LockForRequest(Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock_contended_counter_.Add();
    lock.lock();
  }
  return lock;
}

void BufferPool::TouchLocked(Shard& s, Frame* frame) {
  // splice relinks the existing list node: no allocation, and lru_it stays
  // valid (it now points into the destination list).
  if (options_.policy == CachePolicy::kLru || s.protected_cap == 0) {
    s.probation.splice(s.probation.begin(), s.probation, frame->lru_it);
    return;
  }
  if (frame->in_protected) {
    s.protected_pages.splice(s.protected_pages.begin(), s.protected_pages,
                             frame->lru_it);
    return;
  }
  // Re-use in probation promotes; the protected segment sheds its own LRU
  // back to probation when over budget (it keeps a second chance there).
  s.protected_pages.splice(s.protected_pages.begin(), s.probation,
                           frame->lru_it);
  frame->in_protected = true;
  while (s.protected_pages.size() > s.protected_cap) {
    auto demoted = std::prev(s.protected_pages.end());
    Frame* d = s.frames.at(*demoted).get();
    s.probation.splice(s.probation.begin(), s.protected_pages, demoted);
    d->in_protected = false;
  }
}

BufferPool::FrameMap::node_type BufferPool::EvictForLocked(Shard& s,
                                                           PageId id) {
  std::list<PageId>& from =
      s.probation.empty() ? s.protected_pages : s.probation;
  auto victim_it = std::prev(from.end());
  FrameMap::node_type node = s.frames.extract(*victim_it);
  s.probation.splice(s.probation.begin(), from, victim_it);
  s.probation.front() = id;
  node.key() = id;
  node.mapped()->lru_it = s.probation.begin();
  node.mapped()->in_protected = false;
  ++s.stats.evictions;
  Count(&StorageStats::evictions);
  evictions_counter_.Add();
  return node;
}

StatusOr<const Page*> BufferPool::ReadScratchLocked(Shard& s, PageId id) {
  if (s.scratch == nullptr) {
    s.scratch = std::make_unique<Page>(file_->page_size());
  }
  STRR_RETURN_IF_ERROR(file_->ReadPage(id, s.scratch.get()));
  Count(&StorageStats::disk_page_reads);
  return const_cast<const Page*>(s.scratch.get());
}

StatusOr<const Page*> BufferPool::Fetch(PageId id) {
  Shard& s = ShardFor(id);
  std::unique_lock<std::mutex> lock = LockForRequest(s);
  return FetchLocked(s, id);
}

Status BufferPool::ReadInto(PageId id, uint32_t offset, void* dst,
                            uint32_t n) {
  Shard& s = ShardFor(id);
  std::unique_lock<std::mutex> lock = LockForRequest(s);
  STRR_ASSIGN_OR_RETURN(const Page* page, FetchLocked(s, id));
  page->Read(offset, dst, n);
  return Status::OK();
}

StatusOr<const Page*> BufferPool::FetchLocked(Shard& s, PageId id) {
  if (s.capacity == 0) {
    // Degenerate pool: cache nothing. Every request is a miss served from
    // a private scratch frame (valid until the next Fetch).
    ++s.stats.cache_misses;
    Count(&StorageStats::cache_misses);
    misses_counter_.Add();
    return ReadScratchLocked(s, id);
  }
  if (s.sketch != nullptr) s.sketch->Increment(MixPageId(id));
  auto it = s.frames.find(id);
  if (it != s.frames.end()) {
    ++s.stats.cache_hits;
    Count(&StorageStats::cache_hits);
    hits_counter_.Add();
    TouchLocked(s, it->second.get());
    return const_cast<const Page*>(&it->second->page);
  }
  ++s.stats.cache_misses;
  Count(&StorageStats::cache_misses);
  misses_counter_.Add();

  if (s.frames.size() >= s.capacity) {
    if (s.sketch != nullptr && !s.probation.empty()) {
      // Admission contest: only displace the probation victim when the
      // incoming page has proven at least as useful recently. Rejected
      // pages are served via scratch and earn frequency for next time.
      PageId victim = s.probation.back();
      if (s.sketch->Estimate(MixPageId(id)) <=
          s.sketch->Estimate(MixPageId(victim))) {
        ++s.admission_rejects;
        admission_rejects_counter_.Add();
        return ReadScratchLocked(s, id);
      }
    }
    it = s.frames.insert(EvictForLocked(s, id)).position;
  } else {
    s.probation.push_front(id);
    it = s.frames.emplace(id, std::make_unique<Frame>(file_->page_size()))
             .first;
    it->second->lru_it = s.probation.begin();
  }
  Frame* frame = it->second.get();
  Status status = file_->ReadPage(id, &frame->page);
  if (!status.ok()) {
    s.probation.erase(frame->lru_it);
    s.frames.erase(it);
    return status;
  }
  Count(&StorageStats::disk_page_reads);
  return const_cast<const Page*>(&frame->page);
}

Status BufferPool::WriteThrough(PageId id, const Page& page) {
  Shard& s = ShardFor(id);
  std::lock_guard<std::mutex> lock(s.mu);
  STRR_RETURN_IF_ERROR(file_->WritePage(id, page));
  auto it = s.frames.find(id);
  if (it != s.frames.end()) {
    it->second->page = page;
    TouchLocked(s, it->second.get());
  }
  return Status::OK();
}

void BufferPool::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    s.frames.clear();
    s.probation.clear();
    s.protected_pages.clear();
  }
}

StorageStats BufferPool::stats() const {
  StorageStats out;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    out += s.stats;
  }
  StorageStats disk = file_->stats();
  out.disk_page_reads = disk.disk_page_reads;
  out.disk_page_writes = disk.disk_page_writes;
  return out;
}

void BufferPool::ResetStats() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    s.stats = StorageStats{};
    s.admission_rejects = 0;
  }
  file_->ResetStats();
}

BufferPool::Detail BufferPool::detail() const {
  Detail out;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    out.admission_rejects += s.admission_rejects;
    out.probation_pages += s.probation.size();
    out.protected_pages += s.protected_pages.size();
  }
  return out;
}

size_t BufferPool::CachedPages() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.frames.size();
  }
  return total;
}

}  // namespace strr
