// Binary serialization helpers: little-endian fixed-width encodes plus
// varint32/64, in the LevelDB/RocksDB coding style. Used by the page store
// and the index persistence code.
#ifndef STRR_UTIL_SERIALIZE_H_
#define STRR_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace strr {

/// Appends values to a growing byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) {
    char tmp[4];
    std::memcpy(tmp, &v, 4);
    buf_.append(tmp, 4);
  }

  void PutU64(uint64_t v) {
    char tmp[8];
    std::memcpy(tmp, &v, 8);
    buf_.append(tmp, 8);
  }

  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutDouble(double v) {
    char tmp[8];
    std::memcpy(tmp, &v, 8);
    buf_.append(tmp, 8);
  }

  /// LEB128 variable-length unsigned encode (1-5 bytes for 32-bit).
  void PutVarint32(uint32_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }

  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }

  /// Length-prefixed (varint32) byte string.
  void PutString(const std::string& s) {
    PutVarint32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }

  /// Length-prefixed list of uint32, delta-encoded when sorted==true
  /// (callers must then pass a non-decreasing list).
  void PutU32List(const std::vector<uint32_t>& values, bool sorted = false) {
    PutVarint32(static_cast<uint32_t>(values.size()));
    uint32_t prev = 0;
    for (uint32_t v : values) {
      if (sorted) {
        PutVarint32(v - prev);
        prev = v;
      } else {
        PutVarint32(v);
      }
    }
  }

  void PutRaw(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& data() const { return buf_; }
  size_t size() const { return buf_.size(); }
  std::string Release() { return std::move(buf_); }
  /// Empties the buffer but keeps its capacity, for a writer reused
  /// across records.
  void Clear() { buf_.clear(); }

 private:
  std::string buf_;
};

/// Sequentially decodes values written by BinaryWriter. All getters report
/// truncation / malformed input via Status rather than UB.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit BinaryReader(const std::string& s)
      : BinaryReader(s.data(), s.size()) {}

  StatusOr<uint8_t> GetU8() {
    if (pos_ + 1 > size_) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  StatusOr<uint32_t> GetU32() {
    if (pos_ + 4 > size_) return Truncated("u32");
    uint32_t v;
    std::memcpy(&v, data_ + pos_, 4);
    pos_ += 4;
    return v;
  }

  StatusOr<uint64_t> GetU64() {
    if (pos_ + 8 > size_) return Truncated("u64");
    uint64_t v;
    std::memcpy(&v, data_ + pos_, 8);
    pos_ += 8;
    return v;
  }

  StatusOr<int32_t> GetI32() {
    STRR_ASSIGN_OR_RETURN(uint32_t v, GetU32());
    return static_cast<int32_t>(v);
  }

  StatusOr<int64_t> GetI64() {
    STRR_ASSIGN_OR_RETURN(uint64_t v, GetU64());
    return static_cast<int64_t>(v);
  }

  StatusOr<double> GetDouble() {
    if (pos_ + 8 > size_) return Truncated("double");
    double v;
    std::memcpy(&v, data_ + pos_, 8);
    pos_ += 8;
    return v;
  }

  StatusOr<uint32_t> GetVarint32() {
    uint32_t result = 0;
    for (int shift = 0; shift <= 28; shift += 7) {
      if (pos_ >= size_) return Truncated("varint32");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      result |= static_cast<uint32_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return result;
    }
    return Status::Corruption("varint32 too long");
  }

  StatusOr<uint64_t> GetVarint64() {
    uint64_t result = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (pos_ >= size_) return Truncated("varint64");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return result;
    }
    return Status::Corruption("varint64 too long");
  }

  StatusOr<std::string> GetString() {
    STRR_ASSIGN_OR_RETURN(uint32_t n, GetVarint32());
    if (pos_ + n > size_) return Truncated("string body");
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  StatusOr<std::vector<uint32_t>> GetU32List(bool sorted = false) {
    STRR_ASSIGN_OR_RETURN(uint32_t n, GetVarint32());
    // Each element costs at least one byte on the wire; reject impossible
    // counts before reserving so corrupt input cannot OOM us.
    if (n > size_ - pos_ + 0u && n > RemainingBytes()) {
      return Status::Corruption("u32 list count exceeds remaining bytes");
    }
    std::vector<uint32_t> out;
    out.reserve(n);
    uint32_t prev = 0;
    for (uint32_t i = 0; i < n; ++i) {
      STRR_ASSIGN_OR_RETURN(uint32_t delta, GetVarint32());
      if (sorted) {
        prev += delta;
        out.push_back(prev);
      } else {
        out.push_back(delta);
      }
    }
    return out;
  }

  size_t position() const { return pos_; }
  size_t RemainingBytes() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }

 private:
  Status Truncated(const char* what) {
    return Status::Corruption(std::string("truncated input reading ") + what);
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace strr

#endif  // STRR_UTIL_SERIALIZE_H_
