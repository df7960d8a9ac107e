// PostingStore: (segment, slot) -> blob store for time-list postings,
// disk-resident.
//
// The ST-Index stores, for every (road segment, time slot), a posting block
// containing the per-day trajectory-ID lists. Blocks are laid out
// slot-major, as the paper's Fig 3.2 puts time first: all of slot 0's
// blocks in segment order, then slot 1's, and so on. Cell (segment, slot)
// is slot × num_segments + segment. Blocks are appended densely across
// data pages in that cell order (a block may span pages), so their extents
// tile the data region and one slot range is one contiguous byte range. A
// directory of (key, offset, length) triples is serialized at the tail of
// the file.
//
// At open the directory becomes a dense in-memory grid over the cells: one
// uint64 start offset per cell plus one past the end, and a presence
// bitmap that keeps an empty blob distinct from an absent key. A lookup is
// one bit test and two array reads. Open checks the header sizes against
// the file before allocating anything, then validates the directory in one
// pass while it fills the grid: a key outside the grid, keys out of cell
// order, and an extent that leaves a gap, overlaps its neighbour or runs
// past the directory are all Corruption.
//
// Reads pull the covering pages through the BufferPool, so every posting
// access shows up in StorageStats — exactly the I/O the paper's algorithms
// compete on. A query reads through a Window over its slot range: the
// window copies each page it needs into one growing buffer the first time
// any cell asks for it, so, up to the buffer's cap, a query's reads
// request each distinct page at most once however many segments it
// verifies. Absent cells cost a bitmap test. Get and GetInto read one
// cell straight from the pool.
//
// File layout (page 0 is the header):
//   page 0:  magic | page_size | dir_offset | dir_size | entry_count
//   data:    concatenated blobs starting at byte offset page_size
//   dir:     u64 count, then BinaryWriter-encoded (u64 key, u64 offset,
//            u32 length) triples in cell order
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

/// Composes a posting key from a segment id and a slot id. The key names a
/// cell; it is not the storage order (see PostingSlotMajor).
inline PostingKey MakePostingKey(uint32_t segment, uint32_t slot) {
  return (static_cast<uint64_t>(segment) << 32) | slot;
}

/// The key's position in the store's slot-major order: (slot, segment).
inline uint64_t PostingSlotMajor(PostingKey key) {
  return (key << 32) | (key >> 32);
}

/// Shape of the key space: every stored key is MakePostingKey(segment,
/// slot) with segment < num_segments and slot < slots.
struct PostingGrid {
  uint32_t num_segments = 0;
  uint32_t slots = 0;

  uint64_t cells() const { return uint64_t{num_segments} * slots; }
};

/// Append-only writer; call Add for every key in strictly increasing
/// slot-major order (by slot, then by segment), then Finish exactly once.
class PostingStoreBuilder {
 public:
  /// Creates/truncates the store file at `path`.
  static StatusOr<std::unique_ptr<PostingStoreBuilder>> Create(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// Appends a blob under `key`. A key equal to the previous one is
  /// AlreadyExists; one earlier in slot-major order is InvalidArgument.
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
  std::vector<Entry> entries_;  // in slot-major order
  uint64_t data_end_ = 0;       // byte offset within the data region
  Page current_page_{kDefaultPageSize};
  bool current_dirty_ = false;
  bool finished_ = false;
};

/// Open-time knobs beyond the pool size.
struct PostingStoreOptions {
  size_t cache_pages = 0;
  uint32_t page_size = kDefaultPageSize;
  /// Metric-label role for the pool's series ("" = unlabeled).
  std::string role;
};

/// Read side. Thread-safe for concurrent reads: the immutable directory
/// grid is shared read-only and page bytes are copied out under the page's
/// BufferPool shard lock (ReadInto), so eviction races cannot tear a blob.
class PostingStore {
 public:
  /// A per-query read window over the cells of slots [first_slot,
  /// last_slot] (clamped to the grid). The first read that needs a page
  /// copies it, whole, into the window's one page buffer (one BufferPool
  /// request); later reads of any cell on that page, for any segment, are
  /// served from the buffer. A blob that straddles a page boundary is
  /// assembled in a side buffer. The buffer holds at most kMaxPages pages:
  /// past that a page is read straight from the pool for the one cell that
  /// needs it, uncached, as GetInto does. Not thread-safe; the store must
  /// outlive it.
  class Window {
   public:
    /// Cap on the pages one window buffers (2 MiB at 4 KiB pages).
    static constexpr size_t kMaxPages = 512;

    Window(const PostingStore& store, uint32_t first_slot, uint32_t last_slot);

    /// The window's slots: [first_slot(), end_slot()), empty when equal.
    uint32_t first_slot() const { return first_slot_; }
    uint32_t end_slot() const { return end_slot_; }

    /// Points `*blob` at the blob of (segment, slot), valid until the next
    /// Read. False when the cell is absent, outside the grid or outside
    /// the window's slots; absent and empty cells cost no I/O.
    StatusOr<bool> Read(uint32_t segment, uint32_t slot,
                        std::string_view* blob);

    /// Pages held in the buffer (at most kMaxPages).
    size_t pages_buffered() const { return frames_used_; }

   private:
    static constexpr uint32_t kNoFrame = ~uint32_t{0};

    /// The buffered bytes of data page `pid`, loading it on first use;
    /// nullptr when it is not buffered and the buffer is full.
    StatusOr<const char*> PageBytes(PageId pid);

    const PostingStore* store_;
    uint32_t first_slot_ = 0;
    uint32_t end_slot_ = 0;
    PageId first_page_ = 0;  // the data page holding the slots' first byte
    std::vector<uint32_t> frame_of_;  // page - first_page_ -> frame index
    std::unique_ptr<char[]> frames_;  // frame i at i * page_size
    size_t frames_capacity_ = 0;
    size_t frames_used_ = 0;
    std::string side_;  // straddling blobs and reads past the cap
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

  /// Copies the blob stored under `key` into `*out`, reusing its capacity,
  /// with one BufferPool request per page it spans. Returns false, with
  /// `*out` cleared, when the key is absent.
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

  /// Grid cell of (segment, slot), or kNoCell when it is absent.
  uint64_t CellOf(uint64_t segment, uint64_t slot) const {
    if (segment >= grid_.num_segments || slot >= grid_.slots) return kNoCell;
    const uint64_t cell = slot * grid_.num_segments + segment;
    return Present(cell) ? cell : kNoCell;
  }
  uint64_t CellOf(PostingKey key) const {
    return CellOf(key >> 32, key & 0xffffffffu);
  }

  /// Copies data bytes [begin, end) to `dst`, one ReadInto per page.
  Status CopyExtent(uint64_t begin, uint64_t end, char* dst) const;

  /// Reads the serialized directory and fills starts_/present_.
  Status LoadDirectory(uint64_t dir_offset, uint64_t entry_count,
                       const std::string& path);

  std::unique_ptr<FileManager> file_;
  std::unique_ptr<BufferPool> pool_;
  PostingGrid grid_;
  /// starts_[c] = data offset of cell c's blob (c = slot × num_segments +
  /// segment); starts_[c + 1] - starts_[c] is its length (0 for absent
  /// cells).
  std::vector<uint64_t> starts_;
  std::vector<uint64_t> present_;  // one bit per cell
  uint64_t num_entries_ = 0;
};

}  // namespace strr

#endif  // STRR_STORAGE_POSTING_STORE_H_
