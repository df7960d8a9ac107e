// PostingStore: key -> blob store for time-list postings, disk-resident.
//
// The ST-Index stores, for every (road segment, time slot), a posting block
// containing the per-day trajectory-ID lists. Blocks are appended densely
// across data pages (a block may span pages); a directory (key -> byte
// extent) is serialized at the tail of the file and loaded fully at open.
// Reads pull the covering pages through the BufferPool, so every posting
// access shows up in StorageStats — exactly the I/O the paper's algorithms
// compete on.
//
// File layout (page 0 is the header):
//   page 0:  magic | page_size | data_end_offset | dir_offset | dir_size
//   data:    concatenated blobs starting at byte offset page_size
//   dir:     BinaryWriter-encoded (key, offset, length) triples
#ifndef STRR_STORAGE_POSTING_STORE_H_
#define STRR_STORAGE_POSTING_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "util/result.h"

namespace strr {

using PostingKey = uint64_t;

/// Composes a posting key from a segment id and a slot id.
inline PostingKey MakePostingKey(uint32_t segment, uint32_t slot) {
  return (static_cast<uint64_t>(segment) << 32) | slot;
}

/// Append-only writer; call Add for every key then Finish exactly once.
class PostingStoreBuilder {
 public:
  /// Creates/truncates the store file at `path`.
  static StatusOr<std::unique_ptr<PostingStoreBuilder>> Create(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// Adds a blob under `key`; duplicate keys are rejected.
  Status Add(PostingKey key, const std::string& blob);

  /// Writes the directory + header and closes the builder. The builder is
  /// unusable afterwards.
  Status Finish();

  uint64_t NumEntries() const { return directory_.size(); }
  uint64_t DataBytes() const { return data_end_; }

 private:
  struct Extent {
    uint64_t offset;
    uint32_t length;
  };

  PostingStoreBuilder(std::unique_ptr<FileManager> file)
      : file_(std::move(file)) {}

  /// Appends raw bytes at data_end_, allocating pages as needed.
  Status AppendBytes(const char* data, size_t n);

  std::unique_ptr<FileManager> file_;
  std::unordered_map<PostingKey, Extent> directory_;
  std::vector<PostingKey> insertion_order_;
  uint64_t data_end_ = 0;  // byte offset within the data region
  Page current_page_{kDefaultPageSize};
  bool current_dirty_ = false;
  bool finished_ = false;
};

/// Open-time knobs beyond the pool size.
struct PostingStoreOptions {
  size_t cache_pages = 0;
  uint32_t page_size = kDefaultPageSize;
  /// Replacement policy for the store's BufferPool.
  CachePolicy cache_policy = CachePolicy::kLru;
  double cache_protected_share = 0.8;
  /// Metric-label role for the pool's series ("" = unlabeled).
  std::string role;
  /// Build a bloom doorkeeper over the posting keys at open; lookups for
  /// absent keys short-circuit on the filter before the directory probe.
  /// 0 disables (seed behavior).
  int bloom_bits_per_key = 0;
};

/// Read side. Thread-safe for concurrent Get calls: the immutable
/// directory is shared read-only and page bytes are copied out under the
/// page's BufferPool shard lock (ReadInto), so eviction races cannot tear
/// a blob.
class PostingStore {
 public:
  /// Opens the store, loading the directory eagerly. The store owns its
  /// FileManager and BufferPool; `cache_pages` sizes the pool.
  static StatusOr<std::unique_ptr<PostingStore>> Open(
      const std::string& path, size_t cache_pages,
      uint32_t page_size = kDefaultPageSize);

  /// Opens with full storage-engine knobs (block-cache policy, per-role
  /// metric labels, bloom doorkeeper).
  static StatusOr<std::unique_ptr<PostingStore>> Open(
      const std::string& path, const PostingStoreOptions& options);

  /// Fetches the blob stored under `key`; NotFound when absent.
  StatusOr<std::string> Get(PostingKey key) const;

  /// Copies the blob stored under `key` into `*out`, reusing its capacity
  /// (the verification read path keeps one buffer per thread). Returns
  /// false, with `*out` cleared, when the key is absent.
  StatusOr<bool> GetInto(PostingKey key, std::string* out) const;

  /// True when `key` exists (bloom doorkeeper, then directory; no I/O).
  bool Contains(PostingKey key) const {
    if (!MayContain(key)) return false;
    return directory_.find(key) != directory_.end();
  }

  uint64_t NumEntries() const { return directory_.size(); }

  /// Lookups the bloom doorkeeper answered negatively (absent-key probes
  /// that skipped the directory). 0 when the filter is off.
  uint64_t BloomNegatives() const {
    return bloom_negatives_.load(std::memory_order_relaxed);
  }

  StorageStats stats() const { return pool_->stats(); }
  void ResetStats() { pool_->ResetStats(); }
  /// Drops the page cache — benches use this to measure cold-cache runs.
  void DropCache() { pool_->Clear(); }

  BufferPool* buffer_pool() { return pool_.get(); }

 private:
  struct Extent {
    uint64_t offset;
    uint32_t length;
  };

  PostingStore(std::unique_ptr<FileManager> file,
               std::unique_ptr<BufferPool> pool)
      : file_(std::move(file)), pool_(std::move(pool)) {}

  /// Bloom probe (safe-true when the filter is off or malformed).
  bool MayContain(PostingKey key) const;

  std::unique_ptr<FileManager> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unordered_map<PostingKey, Extent> directory_;
  std::string bloom_;  // doorkeeper over keys; empty = off
  mutable std::atomic<uint64_t> bloom_negatives_{0};
  uint64_t data_start_ = 0;  // byte offset of the data region (page 1)
};

}  // namespace strr

#endif  // STRR_STORAGE_POSTING_STORE_H_
