// Bloom filter in the LevelDB style: double hashing over one base hash,
// k derived from bits_per_key, k stored in the filter's last byte so the
// probe side needs no out-of-band configuration.
//
// Used by the immutable observation tables to answer "might this table
// touch segment S?" without decoding the batches. Posting lookups need no
// filter: an absent (segment, slot) is one bit test in PostingStore's
// dense directory.
#ifndef STRR_STORAGE_BLOOM_FILTER_H_
#define STRR_STORAGE_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace strr {

class BloomFilterBuilder {
 public:
  explicit BloomFilterBuilder(int bits_per_key = 10)
      : bits_per_key_(bits_per_key < 1 ? 1 : bits_per_key) {
    // k = bits_per_key * ln(2), clamped to a sane range.
    k_ = static_cast<uint32_t>(bits_per_key_ * 0.69);
    if (k_ < 1) k_ = 1;
    if (k_ > 30) k_ = 30;
  }

  /// Adds one key by its (already mixed) hash.
  void AddHash(uint64_t h) { hashes_.push_back(static_cast<uint32_t>(h)); }

  /// Builds the filter bytes (bit array + trailing k byte).
  std::string Build() const {
    size_t bits = hashes_.size() * static_cast<size_t>(bits_per_key_);
    if (bits < 64) bits = 64;  // small-n false-positive floor
    size_t bytes = (bits + 7) / 8;
    bits = bytes * 8;
    std::string filter(bytes, '\0');
    for (uint32_t h : hashes_) {
      uint32_t delta = (h >> 17) | (h << 15);
      for (uint32_t j = 0; j < k_; ++j) {
        uint32_t bit = h % static_cast<uint32_t>(bits);
        filter[bit / 8] |= static_cast<char>(1u << (bit % 8));
        h += delta;
      }
    }
    filter.push_back(static_cast<char>(k_));
    return filter;
  }

  size_t num_keys() const { return hashes_.size(); }

 private:
  int bits_per_key_;
  uint32_t k_;
  std::vector<uint32_t> hashes_;
};

/// Probes a filter produced by BloomFilterBuilder::Build. An empty or
/// malformed filter conservatively answers true (never a false negative).
inline bool BloomMayContain(std::string_view filter, uint64_t hash) {
  if (filter.size() < 2) return true;
  size_t bits = (filter.size() - 1) * 8;
  uint32_t k = static_cast<uint8_t>(filter.back());
  if (k == 0 || k > 30) return true;  // reserved / corrupt: stay safe
  uint32_t h = static_cast<uint32_t>(hash);
  uint32_t delta = (h >> 17) | (h << 15);
  for (uint32_t j = 0; j < k; ++j) {
    uint32_t bit = h % static_cast<uint32_t>(bits);
    if ((filter[bit / 8] & static_cast<char>(1u << (bit % 8))) == 0) {
      return false;
    }
    h += delta;
  }
  return true;
}

}  // namespace strr

#endif  // STRR_STORAGE_BLOOM_FILTER_H_
