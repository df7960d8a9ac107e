// Immutable observation tables: sealed, checksummed files holding
// coalesce-ready observation batches flushed out of the WAL memtable (the
// LevelDB table_builder idea specialized to the live tier's replay
// workload). Recovery reads a table whole, so it carries no per-segment
// filter.
//
// A table preserves *batch boundaries and byte-exact observation values*
// (speeds as raw doubles) so recovery can re-publish the identical update
// stream the ingestor originally applied.
//
// File layout, version 2 (all little-endian, written atomically — a torn
// table file can never appear under its committed name):
//
//   u64 magic  u32 version
//   batches:   per batch  varint64 seq, varint32 count,
//              per obs    varint32 segment, varint64 zigzag(tod),
//                         f64 speed (raw bits)
//   footer:    u64 num_batches, u64 num_observations,
//              u64 first_seq, u64 last_seq,
//              u32 crc32c (over every preceding byte), u64 tail magic
#ifndef STRR_STORAGE_OBS_TABLE_H_
#define STRR_STORAGE_OBS_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "live/observation.h"
#include "util/result.h"
#include "util/serialize.h"
#include "util/status.h"

namespace strr {

/// One WAL-acked batch: the unit of durability and of replay.
struct ObservationBatch {
  uint64_t seq = 0;  ///< monotonically increasing batch sequence number
  std::vector<SpeedObservation> observations;
};

/// Appends one batch to `w` in the shared WAL/table encoding.
void EncodeObservationBatch(BinaryWriter& w, const ObservationBatch& batch);

/// Decodes one batch; Corruption on malformed input, with allocation
/// clamped by the remaining bytes (hostile counts cannot OOM).
Status DecodeObservationBatch(BinaryReader& r, ObservationBatch* out);

/// Accumulates batches and seals them into an immutable table file.
class ObservationTableBuilder {
 public:
  void AddBatch(const ObservationBatch& batch);

  /// Bytes of encoded batch data so far (the memtable flush trigger).
  size_t encoded_size() const { return writer_.size(); }
  uint64_t num_batches() const { return num_batches_; }

  /// Seals and atomically publishes the table at `path`.
  Status Finish(const std::string& path);

 private:
  BinaryWriter writer_;  // batch section only; header/footer at Finish
  uint64_t num_batches_ = 0;
  uint64_t num_observations_ = 0;
  uint64_t first_seq_ = 0;
  uint64_t last_seq_ = 0;
};

/// Read side: verifies the whole-file checksum at open, then exposes the
/// batches.
class ObservationTable {
 public:
  static StatusOr<ObservationTable> Open(const std::string& path);

  /// Parses table bytes (exposed for corruption tests); `origin` labels
  /// error messages.
  static StatusOr<ObservationTable> Parse(const std::string& bytes,
                                          const std::string& origin);

  const std::vector<ObservationBatch>& batches() const { return batches_; }
  std::vector<ObservationBatch> TakeBatches() { return std::move(batches_); }

  uint64_t first_seq() const { return first_seq_; }
  uint64_t last_seq() const { return last_seq_; }
  uint64_t num_observations() const { return num_observations_; }

 private:
  std::vector<ObservationBatch> batches_;
  uint64_t first_seq_ = 0;
  uint64_t last_seq_ = 0;
  uint64_t num_observations_ = 0;
};

}  // namespace strr

#endif  // STRR_STORAGE_OBS_TABLE_H_
