// BufferPool: page cache over a FileManager.
//
// Every page request is either a cache hit (no disk traffic) or a miss
// (one disk_page_read). Capacity is configurable so the benchmarks can
// study the index algorithms under different memory pressure — the
// ablation bench sweeps this knob.
//
// Replacement is plain LRU, with no policy option: on the serving
// workload whose pool evicts, a scan-resistant (W-TinyLFU) policy raised
// the hit rate without moving throughput, because a miss is a ~4 us pread
// from the OS page cache.
//
// Concurrency: the pool is hash-partitioned into shards keyed by a mixed
// page id. Each shard has its own mutex, frame map, LRU list and stats, so
// readers of different pages rarely meet on a lock. The shard count
// follows capacity (one shard per kFramesPerShard frames, at most
// kMaxShards); pools under 2 * kFramesPerShard frames keep one shard and
// hence the exact pool-wide LRU order. Replacement is per shard: a shard
// evicts its own least-recent frame.
//
// `BufferPoolOptions::role` labels this pool's metric series (e.g.
// role="posting"), giving per-file-role hit/miss/eviction accounting
// across the engine's pools. strr_bufferpool_lock_contended_total counts
// page requests that found their shard's lock held and had to block.
#ifndef STRR_STORAGE_BUFFER_POOL_H_
#define STRR_STORAGE_BUFFER_POOL_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"
#include "storage/file_manager.h"
#include "storage/page.h"
#include "util/result.h"

namespace strr {

struct BufferPoolOptions {
  /// 0 means "cache nothing" (every request is a miss), which is how the
  /// benches emulate a cold disk.
  size_t capacity_pages = 0;
  /// Metric label for this pool's series ("" = the unlabeled series).
  std::string role;
};

/// Page cache. Thread-safe.
class BufferPool {
 public:
  /// A pool gets capacity / kFramesPerShard shards, at least 1 and at most
  /// kMaxShards. The count depends on capacity only, not on the host's
  /// thread count, so a given capacity evicts the same way on every
  /// machine. 256 frames keep each shard's LRU deep enough that hash skew
  /// does not evict hot pages early; 16 shards make two of a handful of
  /// concurrent readers rarely meet on one lock. The 4096-page default
  /// pool gets 16 shards of 256 frames.
  static constexpr size_t kFramesPerShard = 256;
  static constexpr size_t kMaxShards = 16;

  BufferPool(FileManager* file, size_t capacity_pages)
      : BufferPool(file, BufferPoolOptions{.capacity_pages = capacity_pages,
                                           .role = {}}) {}

  BufferPool(FileManager* file, const BufferPoolOptions& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches page `id`, reading it from disk on a miss. The returned
  /// pointer is owned by the pool and remains valid only until the next
  /// Fetch/ReadInto from ANY thread (which may evict the frame, or reuse
  /// the scratch frame of a capacity-0 pool). Single-threaded callers
  /// (tests, benches) only; concurrent readers must use ReadInto, which
  /// copies while the frame is pinned under its shard's lock.
  StatusOr<const Page*> Fetch(PageId id);

  /// Copies `n` bytes at `offset` within page `id` into `dst`, going
  /// through the cache (hit/miss accounting identical to Fetch). The copy
  /// happens under the page's shard lock, so the bytes are consistent even
  /// while other threads fetch and evict — this is the concurrent read
  /// path the query executor relies on. Requests for pages in different
  /// shards proceed in parallel. Caller guarantees offset + n <= page size.
  Status ReadInto(PageId id, uint32_t offset, void* dst, uint32_t n);

  /// Writes `page` through to disk and refreshes/installs the cached copy.
  Status WriteThrough(PageId id, const Page& page);

  /// Drops all cached pages (stats are preserved).
  void Clear();

  /// Combined statistics: pool-level hits/misses/evictions summed over the
  /// shards, merged with the underlying file's disk counters.
  StorageStats stats() const;

  /// Zeroes both pool and file counters.
  void ResetStats();

  size_t capacity() const { return options_.capacity_pages; }
  const std::string& role() const { return options_.role; }
  size_t num_shards() const { return num_shards_; }
  size_t CachedPages() const;
  FileManager* file() { return file_; }

 private:
  struct Frame {
    Page page;
    std::list<PageId>::iterator lru_it;
    explicit Frame(uint32_t page_size) : page(page_size) {}
  };
  using FrameMap = std::unordered_map<PageId, std::unique_ptr<Frame>>;

  /// One hash partition: a self-contained LRU cache over the pages
  /// that map to it. Cache-line aligned so neighbouring shard locks do not
  /// share a line.
  struct alignas(64) Shard {
    std::mutex mu;
    size_t capacity = 0;
    FrameMap frames;
    std::list<PageId> lru;  // front = most recent
    std::unique_ptr<Page> scratch;
    StorageStats stats;  // hits, misses and evictions only
  };

  Shard& ShardFor(PageId id) const;

  /// Takes `shard`'s lock, counting a contended acquisition when another
  /// thread holds it.
  std::unique_lock<std::mutex> LockForRequest(Shard& shard) const;

  /// Hit/miss lookup for `id`. Caller holds shard.mu; the returned pointer
  /// is valid only while the lock is held.
  StatusOr<const Page*> FetchLocked(Shard& shard, PageId id);

  /// Evicts the least-recent frame and returns its map node re-keyed to
  /// `id`, with its list node moved to the front: a miss reuses the
  /// victim's frame instead of allocating. Caller holds shard.mu.
  FrameMap::node_type EvictForLocked(Shard& shard, PageId id);

  FileManager* file_;
  BufferPoolOptions options_;
  size_t num_shards_ = 1;
  std::unique_ptr<Shard[]> shards_;

  obs::Counter& hits_counter_;
  obs::Counter& misses_counter_;
  obs::Counter& evictions_counter_;
  obs::Counter& lock_contended_counter_;
};

}  // namespace strr

#endif  // STRR_STORAGE_BUFFER_POOL_H_
