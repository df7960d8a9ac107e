// Cache-line-aligned allocation for the hot per-segment arrays.
//
// The frontier interior's label/stamp arrays are streamed by every
// expansion; starting each array on its own 64-byte line keeps one pop's
// touches to one line per array and stops allocator-placed headers from
// splitting the first elements across lines. AlignedVector is a plain
// std::vector with this allocator — same API, same growth, only the
// storage alignment changes.
#ifndef STRR_UTIL_ALIGNED_H_
#define STRR_UTIL_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace strr {

/// One x86/ARM cache line. (std::hardware_destructive_interference_size
/// is constexpr-unstable across toolchains; pinning 64 keeps layouts and
/// ABI identical everywhere.)
inline constexpr size_t kCacheLineBytes = 64;

/// Minimal allocator handing out kCacheLineBytes-aligned storage.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(kCacheLineBytes)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(kCacheLineBytes));
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const { return true; }
};

template <typename T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

}  // namespace strr

#endif  // STRR_UTIL_ALIGNED_H_
