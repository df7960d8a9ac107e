#include "storage/posting_store.h"

#include <algorithm>
#include <cstring>

#include "util/serialize.h"

namespace strr {

namespace {
// "STRRPST2": slot-major cells. The segment-major layout's "STRRPSTO"
// file no longer opens.
constexpr uint64_t kMagic = 0x5354525250535432ULL;
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
  if (!entries_.empty() &&
      PostingSlotMajor(key) <= PostingSlotMajor(entries_.back().key)) {
    if (key == entries_.back().key) {
      return Status::AlreadyExists("duplicate posting key " +
                                   std::to_string(key));
    }
    return Status::InvalidArgument("posting key " + std::to_string(key) +
                                   " added out of slot-major order");
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

  // Serialize the directory in slot-major order.
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
  // Blobs were appended densely in cell order, so each extent starts where
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
    const uint64_t cell = slot * grid_.num_segments + segment;
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
  out->clear();
  const uint64_t cell = CellOf(key);
  if (cell == kNoCell) return false;
  out->resize(starts_[cell + 1] - starts_[cell]);
  STRR_RETURN_IF_ERROR(
      CopyExtent(starts_[cell], starts_[cell + 1], out->data()));
  return true;
}

Status PostingStore::CopyExtent(uint64_t begin, uint64_t end, char* dst) const {
  const uint32_t page_size = file_->page_size();
  for (uint64_t at = begin; at < end;) {
    const auto in_page = static_cast<uint32_t>(at % page_size);
    const auto n = static_cast<uint32_t>(
        std::min<uint64_t>(page_size - in_page, end - at));
    // ReadInto copies under the page's shard lock: safe against concurrent
    // readers evicting the frame mid-copy (Fetch's raw pointer is not).
    STRR_RETURN_IF_ERROR(pool_->ReadInto(1 + at / page_size, in_page,
                                         dst + (at - begin), n));
    at += n;
  }
  return Status::OK();
}

// --- PostingStore::Window ----------------------------------------------------

PostingStore::Window::Window(const PostingStore& store, uint32_t first_slot,
                             uint32_t last_slot)
    : store_(&store) {
  const PostingGrid& grid = store.grid_;
  if (first_slot >= grid.slots || first_slot > last_slot) return;
  first_slot_ = first_slot;
  end_slot_ = std::min(last_slot, grid.slots - 1) + 1;
  // Slot-major: the slots' cells, and so their bytes, are contiguous.
  const uint64_t begin =
      store.starts_[uint64_t{first_slot_} * grid.num_segments];
  const uint64_t end = store.starts_[uint64_t{end_slot_} * grid.num_segments];
  if (end == begin) return;
  const uint32_t page_size = store.file_->page_size();
  first_page_ = 1 + begin / page_size;
  const PageId last_page = 1 + (end - 1) / page_size;
  frame_of_.assign(last_page - first_page_ + 1, kNoFrame);
}

StatusOr<bool> PostingStore::Window::Read(uint32_t segment, uint32_t slot,
                                          std::string_view* blob) {
  if (slot < first_slot_ || slot >= end_slot_) return false;
  const uint64_t cell = store_->CellOf(segment, slot);
  if (cell == kNoCell) return false;
  const uint64_t begin = store_->starts_[cell];
  const uint64_t end = store_->starts_[cell + 1];
  const uint32_t page_size = store_->file_->page_size();
  char* assembled = nullptr;
  for (uint64_t at = begin; at < end;) {
    const PageId pid = 1 + at / page_size;
    const auto in_page = static_cast<uint32_t>(at % page_size);
    const auto n = static_cast<uint32_t>(
        std::min<uint64_t>(page_size - in_page, end - at));
    STRR_ASSIGN_OR_RETURN(const char* page, PageBytes(pid));
    if (page != nullptr && n == end - begin) {
      *blob = std::string_view(page + in_page, n);  // one buffered page
      return true;
    }
    if (assembled == nullptr) {
      side_.resize(end - begin);
      assembled = side_.data();
    }
    if (page != nullptr) {
      std::memcpy(assembled + (at - begin), page + in_page, n);
    } else {
      STRR_RETURN_IF_ERROR(store_->pool_->ReadInto(
          pid, in_page, assembled + (at - begin), n));
    }
    at += n;
  }
  *blob = std::string_view(assembled, end - begin);
  return true;
}

StatusOr<const char*> PostingStore::Window::PageBytes(PageId pid) {
  const size_t page_size = store_->file_->page_size();
  uint32_t& frame = frame_of_[pid - first_page_];
  if (frame != kNoFrame) return frames_.get() + frame * page_size;
  if (frames_used_ == kMaxPages) return nullptr;
  if (frames_used_ == frames_capacity_) {
    // Grow the one buffer geometrically; a query's pages stay contiguous.
    const size_t capacity =
        std::min(kMaxPages, std::max<size_t>(16, 2 * frames_capacity_));
    auto grown = std::make_unique_for_overwrite<char[]>(capacity * page_size);
    if (frames_used_ > 0) {
      std::memcpy(grown.get(), frames_.get(), frames_used_ * page_size);
    }
    frames_ = std::move(grown);
    frames_capacity_ = capacity;
  }
  char* dst = frames_.get() + frames_used_ * page_size;
  STRR_RETURN_IF_ERROR(store_->pool_->ReadInto(
      pid, 0, dst, static_cast<uint32_t>(page_size)));
  frame = static_cast<uint32_t>(frames_used_++);
  return dst;
}

}  // namespace strr
