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
  // splitmix64 finalizer: PageIds are sequential, the shard choice wants
  // well-spread bits.
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
      lock_contended_counter_(PoolCounter(
          "strr_bufferpool_lock_contended_total", options.role)) {
  for (size_t i = 0; i < num_shards_; ++i) {
    // Split capacity evenly; the first (capacity % shards) shards take one
    // extra frame so the shards sum to exactly the configured capacity.
    shards_[i].capacity = options_.capacity_pages / num_shards_ +
                          (i < options_.capacity_pages % num_shards_ ? 1 : 0);
  }
}

BufferPool::Shard& BufferPool::ShardFor(PageId id) const {
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

BufferPool::FrameMap::node_type BufferPool::EvictForLocked(Shard& s,
                                                           PageId id) {
  auto victim_it = std::prev(s.lru.end());
  FrameMap::node_type node = s.frames.extract(*victim_it);
  s.lru.splice(s.lru.begin(), s.lru, victim_it);
  s.lru.front() = id;
  node.key() = id;
  node.mapped()->lru_it = s.lru.begin();
  ++s.stats.evictions;
  Count(&StorageStats::evictions);
  evictions_counter_.Add();
  return node;
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
    if (s.scratch == nullptr) {
      s.scratch = std::make_unique<Page>(file_->page_size());
    }
    STRR_RETURN_IF_ERROR(file_->ReadPage(id, s.scratch.get()));
    Count(&StorageStats::disk_page_reads);
    return const_cast<const Page*>(s.scratch.get());
  }
  auto it = s.frames.find(id);
  if (it != s.frames.end()) {
    ++s.stats.cache_hits;
    Count(&StorageStats::cache_hits);
    hits_counter_.Add();
    // splice relinks the existing list node: no allocation, and lru_it
    // stays valid.
    s.lru.splice(s.lru.begin(), s.lru, it->second->lru_it);
    return const_cast<const Page*>(&it->second->page);
  }
  ++s.stats.cache_misses;
  Count(&StorageStats::cache_misses);
  misses_counter_.Add();

  if (s.frames.size() >= s.capacity) {
    it = s.frames.insert(EvictForLocked(s, id)).position;
  } else {
    s.lru.push_front(id);
    it = s.frames.emplace(id, std::make_unique<Frame>(file_->page_size()))
             .first;
    it->second->lru_it = s.lru.begin();
  }
  Frame* frame = it->second.get();
  Status status = file_->ReadPage(id, &frame->page);
  if (!status.ok()) {
    s.lru.erase(frame->lru_it);
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
    s.lru.splice(s.lru.begin(), s.lru, it->second->lru_it);
  }
  return Status::OK();
}

void BufferPool::Clear() {
  for (size_t i = 0; i < num_shards_; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    s.frames.clear();
    s.lru.clear();
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
  }
  file_->ResetStats();
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
