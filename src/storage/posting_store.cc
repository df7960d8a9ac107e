#include "storage/posting_store.h"

#include <algorithm>

#include "storage/bloom_filter.h"
#include "util/serialize.h"

namespace strr {

namespace {
constexpr uint64_t kMagic = 0x535452525053544fULL;  // "STRRPSTO"

uint64_t MixKey(PostingKey key) {
  // splitmix64 finalizer: keys pack (segment, slot) into adjacent bit
  // ranges, the bloom probes want well-spread bits.
  uint64_t x = key + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
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
  if (directory_.count(key) > 0) {
    return Status::AlreadyExists("duplicate posting key " +
                                 std::to_string(key));
  }
  Extent extent{data_end_, static_cast<uint32_t>(blob.size())};
  STRR_RETURN_IF_ERROR(AppendBytes(blob.data(), blob.size()));
  directory_[key] = extent;
  insertion_order_.push_back(key);
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

  // Serialize the directory in insertion order (deterministic files).
  BinaryWriter dir;
  dir.PutU64(directory_.size());
  for (PostingKey key : insertion_order_) {
    const Extent& e = directory_.at(key);
    dir.PutU64(key);
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
  hw.PutU64(directory_.size());           // entry count (redundant check)
  header.Write(0, hw.data().data(), static_cast<uint32_t>(hw.size()));
  STRR_RETURN_IF_ERROR(file_->WritePage(0, header));
  finished_ = true;
  return Status::OK();
}

// --- PostingStore ------------------------------------------------------------

StatusOr<std::unique_ptr<PostingStore>> PostingStore::Open(
    const std::string& path, size_t cache_pages, uint32_t page_size) {
  PostingStoreOptions options;
  options.cache_pages = cache_pages;
  options.page_size = page_size;
  return Open(path, options);
}

StatusOr<std::unique_ptr<PostingStore>> PostingStore::Open(
    const std::string& path, const PostingStoreOptions& options) {
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

  auto store = std::unique_ptr<PostingStore>(
      new PostingStore(std::move(file), std::move(pool)));
  store->data_start_ = page_size;  // data region begins at page 1

  // Load the directory bytes (straight reads; bypass the pool).
  std::string dir_bytes(dir_size, '\0');
  {
    const uint64_t begin = dir_offset;
    uint64_t copied = 0;
    Page scratch(page_size);
    while (copied < dir_size) {
      uint64_t byte = begin + copied;
      PageId pid = 1 + byte / page_size;
      uint32_t in_page = static_cast<uint32_t>(byte % page_size);
      uint32_t chunk =
          std::min<uint64_t>(page_size - in_page, dir_size - copied);
      STRR_RETURN_IF_ERROR(store->file_->ReadPage(pid, &scratch));
      scratch.Read(in_page, dir_bytes.data() + copied, chunk);
      copied += chunk;
    }
  }
  BinaryReader dr(dir_bytes);
  STRR_ASSIGN_OR_RETURN(uint64_t n, dr.GetU64());
  if (n != entry_count) {
    return Status::Corruption("directory entry count mismatch in " + path);
  }
  store->directory_.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    STRR_ASSIGN_OR_RETURN(uint64_t key, dr.GetU64());
    STRR_ASSIGN_OR_RETURN(uint64_t offset, dr.GetU64());
    STRR_ASSIGN_OR_RETURN(uint32_t length, dr.GetU32());
    store->directory_[key] = Extent{offset, length};
  }
  if (options.bloom_bits_per_key > 0) {
    BloomFilterBuilder bloom(options.bloom_bits_per_key);
    for (const auto& [key, extent] : store->directory_) {
      bloom.AddHash(MixKey(key));
    }
    store->bloom_ = bloom.Build();
  }
  store->file_->ResetStats();
  return store;
}

bool PostingStore::MayContain(PostingKey key) const {
  if (bloom_.empty()) return true;
  if (BloomMayContain(bloom_, MixKey(key))) return true;
  bloom_negatives_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

StatusOr<std::string> PostingStore::Get(PostingKey key) const {
  std::string out;
  STRR_ASSIGN_OR_RETURN(bool found, GetInto(key, &out));
  if (!found) return Status::NotFound("posting key " + std::to_string(key));
  return out;
}

StatusOr<bool> PostingStore::GetInto(PostingKey key, std::string* out) const {
  out->clear();
  if (!MayContain(key)) return false;
  auto it = directory_.find(key);
  if (it == directory_.end()) return false;
  const Extent& e = it->second;
  const uint32_t page_size = file_->page_size();
  out->resize(e.length);
  uint64_t copied = 0;
  while (copied < e.length) {
    uint64_t byte = e.offset + copied;
    PageId pid = 1 + byte / page_size;
    uint32_t in_page = static_cast<uint32_t>(byte % page_size);
    uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(page_size - in_page,
                                                 e.length - copied));
    // ReadInto copies under the page's shard lock: safe against concurrent
    // readers evicting the frame mid-copy (Fetch's raw pointer is not).
    STRR_RETURN_IF_ERROR(
        pool_->ReadInto(pid, in_page, out->data() + copied, chunk));
    copied += chunk;
  }
  return true;
}

}  // namespace strr
