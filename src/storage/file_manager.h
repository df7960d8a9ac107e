// FileManager: page-granular access to one backing file.
//
// The lowest storage layer: allocates, reads and writes whole pages and
// counts every transfer. Sits below the BufferPool, which adds caching.
// Transfers are positional (pread/pwrite on one file descriptor), so there
// is no shared file position and concurrent page reads take no lock.
#ifndef STRR_STORAGE_FILE_MANAGER_H_
#define STRR_STORAGE_FILE_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace strr {

/// Owns a file descriptor and exposes page-level I/O.
///
/// Thread-safe: ReadPage and WritePage are positional and lock-free, so
/// any number of threads transfer pages at once. Only AllocatePage takes a
/// mutex, to serialise its extend-then-publish of NumPages(). The transfer
/// counters are atomics, so stats() is a lock-free snapshot readable while
/// other threads do I/O.
class FileManager {
 public:
  ~FileManager();

  FileManager(const FileManager&) = delete;
  FileManager& operator=(const FileManager&) = delete;

  /// Creates (truncating) a new page file at `path`.
  static StatusOr<std::unique_ptr<FileManager>> Create(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// Opens an existing page file read/write.
  static StatusOr<std::unique_ptr<FileManager>> Open(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// Extends the file by one zeroed page; returns its id.
  StatusOr<PageId> AllocatePage();

  /// Reads page `id` into `*page` (page must match page_size()).
  Status ReadPage(PageId id, Page* page);

  /// Writes `page` at page `id` (must be < NumPages()). The write reaches
  /// the OS before this returns (pwrite, no user-space buffer), so a later
  /// Open of the same path sees it; nothing is fsynced.
  Status WritePage(PageId id, const Page& page);

  uint32_t page_size() const { return page_size_; }
  uint64_t NumPages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  const std::string& path() const { return path_; }

  /// Snapshot of the transfer counters (reads/writes only; the cache
  /// fields of StorageStats belong to the BufferPool above).
  StorageStats stats() const {
    StorageStats s;
    s.disk_page_reads = page_reads_.load(std::memory_order_relaxed);
    s.disk_page_writes = page_writes_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    page_reads_.store(0, std::memory_order_relaxed);
    page_writes_.store(0, std::memory_order_relaxed);
  }

 private:
  FileManager(std::string path, int fd, uint32_t page_size,
              uint64_t num_pages)
      : path_(std::move(path)),
        fd_(fd),
        page_size_(page_size),
        num_pages_(num_pages) {}

  std::string path_;
  int fd_;
  uint32_t page_size_;
  std::atomic<uint64_t> num_pages_;
  std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> page_writes_{0};
  std::mutex alloc_mu_;  // serialises AllocatePage's extend-then-publish
};

}  // namespace strr

#endif  // STRR_STORAGE_FILE_MANAGER_H_
