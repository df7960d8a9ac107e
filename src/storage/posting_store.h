// PostingStore: (segment, slot) -> blob store for time-list postings,
// disk-resident.
//
// The ST-Index stores, for every (road segment, time slot), a posting block
// containing the per-day trajectory-ID lists. Blocks are appended densely
// across data pages in strictly increasing key order (a block may span
// pages), so their extents tile the data region. A directory of
// (key, offset, length) triples is serialized at the tail of the file.
//
// At open the directory becomes a dense in-memory grid over the key space
// (num_segments × slots): one uint64 start offset per cell plus one past
// the end, and a presence bitmap that keeps an empty blob distinct from an
// absent key. A lookup is one bit test and two array reads. Open checks
// the header sizes against the file before allocating anything, then
// validates the directory in one pass while it fills the grid: a key
// outside the grid, keys out of order, and an extent that leaves a gap,
// overlaps its neighbour or runs past the directory are all Corruption.
//
// Reads pull the covering pages through the BufferPool, so every posting
// access shows up in StorageStats — exactly the I/O the paper's algorithms
// compete on. The read unit is a row: one segment's cells over a slot
// range [first, last], whose blobs sit next to each other on disk because
// keys are (segment << 32) | slot. A RowCursor walks the row's present
// cells in slot order and copies bytes into one caller-owned buffer a page
// at a time, only as far as the cell it stands on, so a walk requests each
// distinct page it touches once and a walk stopped early never requests
// the pages only later cells need. Absent cells cost a bitmap test. Get
// and GetInto are the one-cell row.
//
// File layout (page 0 is the header):
//   page 0:  magic | page_size | dir_offset | dir_size | entry_count
//   data:    concatenated blobs starting at byte offset page_size
//   dir:     u64 count, then BinaryWriter-encoded (u64 key, u64 offset,
//            u32 length) triples in key order
#ifndef STRR_STORAGE_POSTING_STORE_H_
#define STRR_STORAGE_POSTING_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
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

/// Shape of the key space: every stored key is MakePostingKey(segment,
/// slot) with segment < num_segments and slot < slots.
struct PostingGrid {
  uint32_t num_segments = 0;
  uint32_t slots = 0;

  uint64_t cells() const { return uint64_t{num_segments} * slots; }
};

/// Append-only writer; call Add for every key in strictly increasing order,
/// then Finish exactly once.
class PostingStoreBuilder {
 public:
  /// Creates/truncates the store file at `path`.
  static StatusOr<std::unique_ptr<PostingStoreBuilder>> Create(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// Appends a blob under `key`. A key equal to the previous one is
  /// AlreadyExists; a smaller one is InvalidArgument.
  Status Add(PostingKey key, const std::string& blob);

  /// Writes the directory + header and closes the builder. The builder is
  /// unusable afterwards.
  Status Finish();

  uint64_t NumEntries() const { return entries_.size(); }
  uint64_t DataBytes() const { return data_end_; }

 private:
  struct Entry {
    PostingKey key;
    uint64_t offset;
    uint32_t length;
  };

  PostingStoreBuilder(std::unique_ptr<FileManager> file)
      : file_(std::move(file)) {}

  /// Appends raw bytes at data_end_, allocating pages as needed.
  Status AppendBytes(const char* data, size_t n);

  std::unique_ptr<FileManager> file_;
  std::vector<Entry> entries_;  // in key order
  uint64_t data_end_ = 0;       // byte offset within the data region
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
};

/// Read side. Thread-safe for concurrent reads: the immutable directory
/// grid is shared read-only and page bytes are copied out under the page's
/// BufferPool shard lock (ReadInto), so eviction races cannot tear a blob.
class PostingStore {
 public:
  /// Walks the present cells of one segment's slots [first_slot,
  /// last_slot] in slot order. Before stopping on a cell it copies the row's
  /// bytes into `*buffer` through the end of the page holding the cell's
  /// last byte (capped at the row's end), one BufferPool request per page,
  /// continuing from where the previous cell left off. Cells outside the
  /// grid are absent. Not thread-safe; the store and buffer must outlive it.
  class RowCursor {
   public:
    RowCursor(const PostingStore& store, uint32_t segment, uint32_t first_slot,
              uint32_t last_slot, std::string* buffer);

    /// Moves to the next present cell; false once the row is exhausted.
    StatusOr<bool> Next();

    /// The current cell's slot and blob (valid until the next Next()).
    uint32_t slot() const { return slot_; }
    std::string_view blob() const {
      return std::string_view(buffer_->data() + (begin_ - row_begin_),
                              end_ - begin_);
    }

   private:
    const PostingStore* store_;
    std::string* buffer_;
    uint64_t cell_ = 0;      // next cell to examine
    uint64_t end_cell_ = 0;  // one past the row's last cell
    uint64_t slot0_cell_ = 0;  // the segment's slot-0 cell
    uint64_t row_begin_ = 0;  // data offsets of the row's extent
    uint64_t row_end_ = 0;
    uint64_t filled_ = 0;  // data offset the buffer holds bytes up to
    uint64_t begin_ = 0;   // current cell's extent
    uint64_t end_ = 0;
    uint32_t slot_ = 0;
  };

  /// Opens the store over the key space `grid`, loading the directory
  /// eagerly. The store owns its FileManager and BufferPool; `cache_pages`
  /// sizes the pool.
  static StatusOr<std::unique_ptr<PostingStore>> Open(
      const std::string& path, PostingGrid grid, size_t cache_pages,
      uint32_t page_size = kDefaultPageSize);

  /// Opens with full storage-engine knobs (block-cache policy, per-role
  /// metric labels).
  static StatusOr<std::unique_ptr<PostingStore>> Open(
      const std::string& path, PostingGrid grid,
      const PostingStoreOptions& options);

  /// Fetches the blob stored under `key`; NotFound when absent.
  StatusOr<std::string> Get(PostingKey key) const;

  /// Copies the blob stored under `key` into `*out`, reusing its capacity:
  /// a one-cell RowCursor. Returns false, with `*out` cleared, when the
  /// key is absent.
  StatusOr<bool> GetInto(PostingKey key, std::string* out) const;

  /// True when `key` exists (one bitmap test; no I/O).
  bool Contains(PostingKey key) const { return CellOf(key) != kNoCell; }

  uint64_t NumEntries() const { return num_entries_; }

  StorageStats stats() const { return pool_->stats(); }
  void ResetStats() { pool_->ResetStats(); }
  /// Drops the page cache — benches use this to measure cold-cache runs.
  void DropCache() { pool_->Clear(); }

  BufferPool* buffer_pool() { return pool_.get(); }

 private:
  static constexpr uint64_t kNoCell = ~uint64_t{0};

  PostingStore(std::unique_ptr<FileManager> file,
               std::unique_ptr<BufferPool> pool, PostingGrid grid)
      : file_(std::move(file)), pool_(std::move(pool)), grid_(grid) {}

  bool Present(uint64_t cell) const {
    return ((present_[cell >> 6] >> (cell & 63)) & 1) != 0;
  }

  /// Grid cell holding `key`, or kNoCell when the key is absent.
  uint64_t CellOf(PostingKey key) const {
    const uint64_t segment = key >> 32;
    const uint64_t slot = key & 0xffffffffu;
    if (segment >= grid_.num_segments || slot >= grid_.slots) return kNoCell;
    const uint64_t cell = segment * grid_.slots + slot;
    return Present(cell) ? cell : kNoCell;
  }

  /// Reads the serialized directory and fills starts_/present_.
  Status LoadDirectory(uint64_t dir_offset, uint64_t entry_count,
                       const std::string& path);

  std::unique_ptr<FileManager> file_;
  std::unique_ptr<BufferPool> pool_;
  PostingGrid grid_;
  /// starts_[c] = data offset of cell c's blob; starts_[c + 1] - starts_[c]
  /// is its length (0 for absent cells).
  std::vector<uint64_t> starts_;
  std::vector<uint64_t> present_;  // one bit per cell
  uint64_t num_entries_ = 0;
};

}  // namespace strr

#endif  // STRR_STORAGE_POSTING_STORE_H_
