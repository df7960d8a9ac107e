#include "storage/file_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace strr {

namespace {

/// pread/pwrite until `n` bytes moved, retrying on EINTR and short
/// transfers. False on an error or on end of file.
template <typename Byte, typename Transfer>
bool TransferAll(Transfer transfer, Byte* buf, size_t n, off_t offset) {
  size_t done = 0;
  while (done < n) {
    ssize_t got = transfer(buf + done, n - done, offset + done);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    done += static_cast<size_t>(got);
  }
  return true;
}

}  // namespace

FileManager::~FileManager() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<FileManager>> FileManager::Create(
    const std::string& path, uint32_t page_size) {
  if (page_size < 64) {
    return Status::InvalidArgument("page size too small: " +
                                   std::to_string(page_size));
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create page file: " + path);
  }
  return std::unique_ptr<FileManager>(
      new FileManager(path, fd, page_size, /*num_pages=*/0));
}

StatusOr<std::unique_ptr<FileManager>> FileManager::Open(
    const std::string& path, uint32_t page_size) {
  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open page file: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot size page file: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size % page_size != 0) {
    ::close(fd);
    return Status::Corruption("file size " + std::to_string(size) +
                              " is not a multiple of page size " +
                              std::to_string(page_size) + ": " + path);
  }
  return std::unique_ptr<FileManager>(
      new FileManager(path, fd, page_size, size / page_size));
}

StatusOr<PageId> FileManager::AllocatePage() {
  Page zero(page_size_);
  std::lock_guard<std::mutex> lock(alloc_mu_);
  PageId id = num_pages_.load(std::memory_order_relaxed);
  auto write = [this](const char* p, size_t n, off_t at) {
    return ::pwrite(fd_, p, n, at);
  };
  if (!TransferAll(write, zero.data(), page_size_,
                   static_cast<off_t>(id * page_size_))) {
    return Status::IoError("short write allocating page");
  }
  num_pages_.store(id + 1, std::memory_order_release);
  page_writes_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Status FileManager::ReadPage(PageId id, Page* page) {
  if (id >= NumPages()) {
    return Status::OutOfRange("read of page " + std::to_string(id) +
                              " beyond EOF (" + std::to_string(NumPages()) +
                              " pages)");
  }
  if (page->size() != page_size_) {
    return Status::InvalidArgument("page buffer size mismatch");
  }
  auto read = [this](char* p, size_t n, off_t at) {
    return ::pread(fd_, p, n, at);
  };
  if (!TransferAll(read, page->data(), page_size_,
                   static_cast<off_t>(id * page_size_))) {
    return Status::IoError("short read of page " + std::to_string(id));
  }
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileManager::WritePage(PageId id, const Page& page) {
  if (id >= NumPages()) {
    return Status::OutOfRange("write of page " + std::to_string(id) +
                              " beyond EOF");
  }
  if (page.size() != page_size_) {
    return Status::InvalidArgument("page buffer size mismatch");
  }
  auto write = [this](const char* p, size_t n, off_t at) {
    return ::pwrite(fd_, p, n, at);
  };
  if (!TransferAll(write, page.data(), page_size_,
                   static_cast<off_t>(id * page_size_))) {
    return Status::IoError("short write of page " + std::to_string(id));
  }
  page_writes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace strr
