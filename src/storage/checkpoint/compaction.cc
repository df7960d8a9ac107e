#include "storage/checkpoint/compaction.h"

#include <filesystem>

#include "storage/obs_table.h"

namespace strr {

StatusOr<CompactionResult> CompactTables(
    std::span<const std::string> input_paths, const std::string& out_path) {
  if (input_paths.empty()) {
    return Status::InvalidArgument("compaction needs at least one input");
  }
  ObservationTableBuilder builder;
  CompactionResult result;
  uint64_t last_emitted = 0;
  for (const std::string& path : input_paths) {
    STRR_ASSIGN_OR_RETURN(ObservationTable table, ObservationTable::Open(path));
    for (ObservationBatch& batch : table.TakeBatches()) {
      if (result.batches > 0 && batch.seq <= last_emitted) continue;  // dup
      if (result.batches > 0 && batch.seq != last_emitted + 1) {
        return Status::Corruption("sequence gap in compaction inputs at " +
                                  path + ": have " +
                                  std::to_string(last_emitted) + ", next " +
                                  std::to_string(batch.seq));
      }
      if (result.batches == 0) result.first_seq = batch.seq;
      last_emitted = batch.seq;
      result.observations += batch.observations.size();
      ++result.batches;
      builder.AddBatch(batch);
    }
  }
  result.last_seq = last_emitted;
  STRR_RETURN_IF_ERROR(builder.Finish(out_path));
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(out_path, ec);
  result.output_bytes = ec ? 0 : size;
  return result;
}

}  // namespace strr
