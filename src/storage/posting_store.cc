#include "storage/posting_store.h"

#include <algorithm>
#include <cstring>

#include "util/serialize.h"

namespace strr {

namespace {
constexpr uint64_t kMagic = 0x535452525053544fULL;  // "STRRPSTO"
// Serialized directory: u64 count, then (u64 key, u64 offset, u32 length).
constexpr uint64_t kDirCountBytes = 8;
constexpr uint64_t kDirEntryBytes = 20;
}  // namespace

// --- PostingStoreBuilder ----------------------------------------------------

StatusOr<std::unique_ptr<PostingStoreBuilder>> PostingStoreBuilder::Create(
    const std::string& path, uint32_t page_size) {
  STRR_ASSIGN_OR_RETURN(std::unique_ptr<FileManager> file,
                        FileManager::Create(path, page_size));
  // Reserve page 0 for the header.
  STRR_ASSIGN_OR_RETURN(PageId header, file->AllocatePage());
  (void)header;
  auto builder = std::unique_ptr<PostingStoreBuilder>(
      new PostingStoreBuilder(std::move(file)));
  builder->current_page_ = Page(page_size);
  return builder;
}

Status PostingStoreBuilder::AppendBytes(const char* data, size_t n) {
  const uint32_t page_size = file_->page_size();
  size_t written = 0;
  while (written < n) {
    uint64_t in_page = data_end_ % page_size;
    PageId page_index = 1 + data_end_ / page_size;  // +1 skips the header
    if (page_index >= file_->NumPages()) {
      STRR_ASSIGN_OR_RETURN(PageId id, file_->AllocatePage());
      (void)id;
      current_page_.Zero();
      current_dirty_ = false;
    }
    uint32_t room = page_size - static_cast<uint32_t>(in_page);
    uint32_t chunk = static_cast<uint32_t>(std::min<size_t>(room, n - written));
    current_page_.Write(static_cast<uint32_t>(in_page), data + written, chunk);
    current_dirty_ = true;
    written += chunk;
    data_end_ += chunk;
    if (data_end_ % page_size == 0) {
      // Page filled: flush it.
      STRR_RETURN_IF_ERROR(file_->WritePage(page_index, current_page_));
      current_page_.Zero();
      current_dirty_ = false;
    }
  }
  return Status::OK();
}

Status PostingStoreBuilder::Add(PostingKey key, const std::string& blob) {
  if (finished_) {
    return Status::FailedPrecondition("PostingStoreBuilder already finished");
  }
  if (!entries_.empty() && key <= entries_.back().key) {
    if (key == entries_.back().key) {
      return Status::AlreadyExists("duplicate posting key " +
                                   std::to_string(key));
    }
    return Status::InvalidArgument("posting key " + std::to_string(key) +
                                   " added after a larger key");
  }
  Entry entry{key, data_end_, static_cast<uint32_t>(blob.size())};
  STRR_RETURN_IF_ERROR(AppendBytes(blob.data(), blob.size()));
  entries_.push_back(entry);
  return Status::OK();
}

Status PostingStoreBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("PostingStoreBuilder already finished");
  }
  const uint32_t page_size = file_->page_size();
  // Flush the partially-filled tail page.
  if (current_dirty_) {
    PageId tail = 1 + data_end_ / page_size;
    if (tail >= file_->NumPages()) {
      STRR_ASSIGN_OR_RETURN(PageId id, file_->AllocatePage());
      (void)id;
    }
    STRR_RETURN_IF_ERROR(file_->WritePage(tail, current_page_));
    current_dirty_ = false;
  }

  // Serialize the directory in key order.
  BinaryWriter dir;
  dir.PutU64(entries_.size());
  for (const Entry& e : entries_) {
    dir.PutU64(e.key);
    dir.PutU64(e.offset);
    dir.PutU32(e.length);
  }
  uint64_t dir_offset = data_end_;
  // Round the data end up to a fresh page so the directory never shares a
  // page with blob bytes (simpler recovery reasoning).
  uint64_t slack = (page_size - data_end_ % page_size) % page_size;
  if (slack > 0) {
    std::string zeros(slack, '\0');
    STRR_RETURN_IF_ERROR(AppendBytes(zeros.data(), zeros.size()));
    dir_offset = data_end_;
  }
  const std::string& dir_bytes = dir.data();
  STRR_RETURN_IF_ERROR(AppendBytes(dir_bytes.data(), dir_bytes.size()));
  // Flush the directory's tail page.
  if (current_dirty_) {
    PageId tail = 1 + data_end_ / page_size;
    if (tail >= file_->NumPages()) {
      STRR_ASSIGN_OR_RETURN(PageId id, file_->AllocatePage());
      (void)id;
    }
    STRR_RETURN_IF_ERROR(file_->WritePage(tail, current_page_));
  }

  // Header.
  Page header(page_size);
  BinaryWriter hw;
  hw.PutU64(kMagic);
  hw.PutU32(page_size);
  hw.PutU64(dir_offset);  // byte offset of directory in data region
  hw.PutU64(dir_bytes.size());            // directory byte length
  hw.PutU64(entries_.size());             // entry count (redundant check)
  header.Write(0, hw.data().data(), static_cast<uint32_t>(hw.size()));
  STRR_RETURN_IF_ERROR(file_->WritePage(0, header));
  finished_ = true;
  return Status::OK();
}

// --- PostingStore ------------------------------------------------------------

StatusOr<std::unique_ptr<PostingStore>> PostingStore::Open(
    const std::string& path, PostingGrid grid, size_t cache_pages,
    uint32_t page_size) {
  PostingStoreOptions options;
  options.cache_pages = cache_pages;
  options.page_size = page_size;
  return Open(path, grid, options);
}

StatusOr<std::unique_ptr<PostingStore>> PostingStore::Open(
    const std::string& path, PostingGrid grid,
    const PostingStoreOptions& options) {
  const uint32_t page_size = options.page_size;
  STRR_ASSIGN_OR_RETURN(std::unique_ptr<FileManager> file,
                        FileManager::Open(path, page_size));
  if (file->NumPages() == 0) {
    return Status::Corruption("posting store has no header page: " + path);
  }
  BufferPoolOptions pool_options;
  pool_options.capacity_pages = options.cache_pages;
  pool_options.policy = options.cache_policy;
  pool_options.protected_share = options.cache_protected_share;
  pool_options.role = options.role;
  auto pool = std::make_unique<BufferPool>(file.get(), pool_options);

  // Read the header directly (not through the pool: header reads should not
  // pollute query statistics).
  Page header(page_size);
  STRR_RETURN_IF_ERROR(file->ReadPage(0, &header));
  BinaryReader hr(header.data(), header.size());
  STRR_ASSIGN_OR_RETURN(uint64_t magic, hr.GetU64());
  if (magic != kMagic) {
    return Status::Corruption("bad posting store magic in " + path);
  }
  STRR_ASSIGN_OR_RETURN(uint32_t stored_page_size, hr.GetU32());
  if (stored_page_size != page_size) {
    return Status::InvalidArgument(
        "posting store was written with page size " +
        std::to_string(stored_page_size));
  }
  STRR_ASSIGN_OR_RETURN(uint64_t dir_offset, hr.GetU64());
  STRR_ASSIGN_OR_RETURN(uint64_t dir_size, hr.GetU64());
  STRR_ASSIGN_OR_RETURN(uint64_t entry_count, hr.GetU64());
  // The header is untrusted: check its sizes against the file and the
  // grid before anything is read or sized from them.
  const uint64_t data_bytes = (file->NumPages() - 1) * page_size;
  if (dir_offset > data_bytes || dir_size > data_bytes - dir_offset) {
    return Status::Corruption("posting directory outside the file " + path);
  }
  if (dir_size < kDirCountBytes ||
      (dir_size - kDirCountBytes) % kDirEntryBytes != 0 ||
      (dir_size - kDirCountBytes) / kDirEntryBytes != entry_count) {
    return Status::Corruption("posting directory size mismatch in " + path);
  }
  if (entry_count > grid.cells()) {
    return Status::Corruption("posting directory outgrows its grid in " + path);
  }

  auto store = std::unique_ptr<PostingStore>(
      new PostingStore(std::move(file), std::move(pool), grid));
  STRR_RETURN_IF_ERROR(store->LoadDirectory(dir_offset, entry_count, path));
  store->file_->ResetStats();
  return store;
}

Status PostingStore::LoadDirectory(uint64_t dir_offset, uint64_t entry_count,
                                   const std::string& path) {
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption(what + " in " + path);
  };
  const uint32_t page_size = file_->page_size();
  const uint64_t cells = grid_.cells();
  starts_.assign(cells + 1, 0);
  present_.assign((cells + 63) / 64, 0);

  // Stream the directory bytes page by page (straight reads; bypass the
  // pool) instead of holding a copy of the whole directory.
  Page page(page_size);
  uint64_t next_byte = dir_offset;
  PageId loaded = 0;  // page 0 is the header: never a directory page
  auto read = [&](void* dst, uint32_t n) -> Status {
    char* out = static_cast<char*>(dst);
    while (n > 0) {
      const PageId pid = 1 + next_byte / page_size;
      const uint32_t in_page = static_cast<uint32_t>(next_byte % page_size);
      if (pid != loaded) {
        STRR_RETURN_IF_ERROR(file_->ReadPage(pid, &page));
        loaded = pid;
      }
      const uint32_t chunk = std::min(page_size - in_page, n);
      page.Read(in_page, out, chunk);
      out += chunk;
      n -= chunk;
      next_byte += chunk;
    }
    return Status::OK();
  };

  uint64_t count = 0;
  STRR_RETURN_IF_ERROR(read(&count, sizeof(count)));
  if (count != entry_count) return corrupt("directory entry count mismatch");
  // Blobs were appended densely in key order, so each extent starts where
  // the previous one ended. Absent cells get the running end as their
  // start: a zero-length extent, told apart from an empty blob by present_.
  uint64_t end = 0;        // end of the extents tiled so far
  uint64_t next_cell = 0;  // first cell whose start is not yet set
  for (uint64_t i = 0; i < entry_count; ++i) {
    char record[kDirEntryBytes];
    STRR_RETURN_IF_ERROR(read(record, sizeof(record)));
    uint64_t key, offset;
    uint32_t length;
    std::memcpy(&key, record, 8);
    std::memcpy(&offset, record + 8, 8);
    std::memcpy(&length, record + 16, 4);
    const uint64_t segment = key >> 32;
    const uint64_t slot = key & 0xffffffffu;
    if (segment >= grid_.num_segments || slot >= grid_.slots) {
      return corrupt("posting key outside the grid");
    }
    const uint64_t cell = segment * grid_.slots + slot;
    if (cell < next_cell) return corrupt("posting keys out of order");
    if (offset > end) return corrupt("posting extents leave a gap");
    if (offset < end) return corrupt("posting extents overlap");
    if (length > dir_offset - end) {
      return corrupt("posting extent runs past the directory");
    }
    std::fill(starts_.begin() + next_cell, starts_.begin() + cell + 1, end);
    present_[cell >> 6] |= uint64_t{1} << (cell & 63);
    end += length;
    next_cell = cell + 1;
  }
  std::fill(starts_.begin() + next_cell, starts_.end(), end);
  num_entries_ = entry_count;
  return Status::OK();
}

StatusOr<std::string> PostingStore::Get(PostingKey key) const {
  std::string out;
  STRR_ASSIGN_OR_RETURN(bool found, GetInto(key, &out));
  if (!found) return Status::NotFound("posting key " + std::to_string(key));
  return out;
}

StatusOr<bool> PostingStore::GetInto(PostingKey key, std::string* out) const {
  const auto segment = static_cast<uint32_t>(key >> 32);
  const auto slot = static_cast<uint32_t>(key & 0xffffffffu);
  RowCursor cell(*this, segment, slot, slot, out);
  return cell.Next();
}

PostingStore::RowCursor::RowCursor(const PostingStore& store, uint32_t segment,
                                   uint32_t first_slot, uint32_t last_slot,
                                   std::string* buffer)
    : store_(&store), buffer_(buffer) {
  buffer_->clear();
  const PostingGrid& grid = store.grid_;
  if (segment >= grid.num_segments || first_slot >= grid.slots ||
      first_slot > last_slot) {
    return;  // an empty row
  }
  last_slot = std::min(last_slot, grid.slots - 1);
  slot0_cell_ = uint64_t{segment} * grid.slots;
  cell_ = slot0_cell_ + first_slot;
  end_cell_ = slot0_cell_ + last_slot + 1;
  row_begin_ = store.starts_[cell_];
  row_end_ = store.starts_[end_cell_];
  filled_ = row_begin_;
}

StatusOr<bool> PostingStore::RowCursor::Next() {
  while (cell_ < end_cell_ && !store_->Present(cell_)) ++cell_;
  if (cell_ == end_cell_) return false;
  begin_ = store_->starts_[cell_];
  end_ = store_->starts_[cell_ + 1];
  slot_ = static_cast<uint32_t>(cell_ - slot0_cell_);
  ++cell_;
  const uint32_t page_size = store_->file_->page_size();
  while (filled_ < end_) {
    const PageId pid = 1 + filled_ / page_size;
    const auto in_page = static_cast<uint32_t>(filled_ % page_size);
    const uint64_t stop =
        std::min<uint64_t>(filled_ - in_page + page_size, row_end_);
    const size_t at = filled_ - row_begin_;
    buffer_->resize(stop - row_begin_);
    // ReadInto copies under the page's shard lock: safe against concurrent
    // readers evicting the frame mid-copy (Fetch's raw pointer is not).
    STRR_RETURN_IF_ERROR(
        store_->pool_->ReadInto(pid, in_page, buffer_->data() + at,
                                static_cast<uint32_t>(stop - filled_)));
    filled_ = stop;
  }
  return true;
}

}  // namespace strr
