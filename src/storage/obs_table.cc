#include "storage/obs_table.h"

#include <cstring>

#include "storage/fs_util.h"
#include "util/crc32c.h"

namespace strr {

namespace {

constexpr uint64_t kObsTableMagic = 0x5354525f4f544231ULL;      // "STR_OTB1"
constexpr uint64_t kObsTableTailMagic = 0x4f54425f454e4431ULL;  // "OTB_END1"
// Version 2 dropped the segment bloom filter that version 1 carried
// before the footer; a version-1 table is Corruption like any unknown one.
constexpr uint32_t kObsTableVersion = 2;
// num_batches + num_obs + first_seq + last_seq + crc + tail magic.
constexpr size_t kFooterSize = 8 + 8 + 8 + 8 + 4 + 8;
constexpr size_t kHeaderSize = 8 + 4;

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

void EncodeObservationBatch(BinaryWriter& w, const ObservationBatch& batch) {
  w.PutVarint64(batch.seq);
  w.PutVarint32(static_cast<uint32_t>(batch.observations.size()));
  for (const SpeedObservation& obs : batch.observations) {
    w.PutVarint32(obs.segment);
    w.PutVarint64(ZigZag(obs.time_of_day_sec));
    // Raw double bits: replay must fold byte-identical values.
    w.PutDouble(obs.speed_mps);
  }
}

Status DecodeObservationBatch(BinaryReader& r, ObservationBatch* out) {
  STRR_ASSIGN_OR_RETURN(out->seq, r.GetVarint64());
  STRR_ASSIGN_OR_RETURN(uint32_t count, r.GetVarint32());
  // Every observation costs >= 10 bytes (1 + 1 + 8); reject impossible
  // counts before reserving so corrupt input cannot demand gigabytes.
  if (count > r.RemainingBytes() / 10) {
    return Status::Corruption("observation count exceeds remaining bytes");
  }
  out->observations.clear();
  out->observations.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SpeedObservation obs;
    STRR_ASSIGN_OR_RETURN(obs.segment, r.GetVarint32());
    STRR_ASSIGN_OR_RETURN(uint64_t zz, r.GetVarint64());
    obs.time_of_day_sec = UnZigZag(zz);
    STRR_ASSIGN_OR_RETURN(obs.speed_mps, r.GetDouble());
    out->observations.push_back(obs);
  }
  return Status::OK();
}

void ObservationTableBuilder::AddBatch(const ObservationBatch& batch) {
  if (num_batches_ == 0) first_seq_ = batch.seq;
  last_seq_ = batch.seq;
  ++num_batches_;
  num_observations_ += batch.observations.size();
  EncodeObservationBatch(writer_, batch);
}

Status ObservationTableBuilder::Finish(const std::string& path) {
  BinaryWriter file;
  file.PutU64(kObsTableMagic);
  file.PutU32(kObsTableVersion);
  file.PutRaw(writer_.data().data(), writer_.size());
  file.PutU64(num_batches_);
  file.PutU64(num_observations_);
  file.PutU64(first_seq_);
  file.PutU64(last_seq_);
  file.PutU32(Crc32c(file.data()));
  file.PutU64(kObsTableTailMagic);
  return AtomicWriteFile(path, file.data());
}

StatusOr<ObservationTable> ObservationTable::Open(const std::string& path) {
  STRR_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return Parse(bytes, path);
}

StatusOr<ObservationTable> ObservationTable::Parse(const std::string& bytes,
                                                   const std::string& origin) {
  if (bytes.size() < kHeaderSize + kFooterSize) {
    return Status::Corruption("observation table too short: " + origin);
  }
  uint64_t tail_magic;
  uint32_t stored_crc;
  std::memcpy(&tail_magic, bytes.data() + bytes.size() - 8, 8);
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 12, 4);
  if (tail_magic != kObsTableTailMagic) {
    return Status::Corruption("observation table tail magic mismatch: " +
                              origin);
  }
  if (Crc32c(bytes.data(), bytes.size() - 12) != stored_crc) {
    return Status::Corruption("observation table checksum mismatch: " +
                              origin);
  }

  BinaryReader footer(bytes.data() + bytes.size() - kFooterSize, 32);
  ObservationTable table;
  uint64_t num_batches;
  STRR_ASSIGN_OR_RETURN(num_batches, footer.GetU64());
  STRR_ASSIGN_OR_RETURN(table.num_observations_, footer.GetU64());
  STRR_ASSIGN_OR_RETURN(table.first_seq_, footer.GetU64());
  STRR_ASSIGN_OR_RETURN(table.last_seq_, footer.GetU64());

  BinaryReader r(bytes.data(), bytes.size() - kFooterSize);
  STRR_ASSIGN_OR_RETURN(uint64_t magic, r.GetU64());
  if (magic != kObsTableMagic) {
    return Status::Corruption("bad observation table magic: " + origin);
  }
  STRR_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kObsTableVersion) {
    return Status::Corruption("unsupported observation table version " +
                              std::to_string(version) + ": " + origin);
  }
  // Batches cost >= 2 bytes each even when empty.
  if (num_batches > r.RemainingBytes() / 2) {
    return Status::Corruption("batch count exceeds remaining bytes: " +
                              origin);
  }
  table.batches_.reserve(num_batches);
  uint64_t observed = 0;
  for (uint64_t i = 0; i < num_batches; ++i) {
    ObservationBatch batch;
    STRR_RETURN_IF_ERROR(DecodeObservationBatch(r, &batch));
    if (i > 0 && batch.seq <= table.batches_.back().seq) {
      return Status::Corruption("non-monotonic batch sequence: " + origin);
    }
    observed += batch.observations.size();
    table.batches_.push_back(std::move(batch));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in observation table: " +
                              origin);
  }
  if (observed != table.num_observations_) {
    return Status::Corruption("footer observation count mismatch: " + origin);
  }
  if (num_batches > 0 && (table.batches_.front().seq != table.first_seq_ ||
                          table.batches_.back().seq != table.last_seq_)) {
    return Status::Corruption("footer sequence range mismatch: " + origin);
  }
  return table;
}

}  // namespace strr
