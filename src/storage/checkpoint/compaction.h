// Table compaction: merges small sealed observation tables into one
// larger seq-deduplicated table.
//
// The merge itself is a pure function over sealed inputs — it opens each
// input (full CRC validation), emits batches in sequence order exactly
// once, and commits the output via ObservationTableBuilder::Finish's
// atomic rename. The caller (the journal's maintenance thread) picks the
// inputs and swaps the file set; recovery tolerates every crash window by
// construction because the merged table and its inputs carry overlapping
// sequence ranges that RecoveryManager deduplicates.
#ifndef STRR_STORAGE_CHECKPOINT_COMPACTION_H_
#define STRR_STORAGE_CHECKPOINT_COMPACTION_H_

#include <cstdint>
#include <span>
#include <string>

#include "util/result.h"

namespace strr {

struct CompactionResult {
  uint64_t batches = 0;
  uint64_t observations = 0;
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  uint64_t output_bytes = 0;
};

/// Merges `input_paths` (sealed tables, ordered by ascending first_seq,
/// jointly covering a contiguous sequence range) into a new table at
/// `out_path`. Batches duplicated across inputs are emitted once; a
/// sequence gap in the merged stream is Corruption. Inputs are read one
/// at a time, so peak memory is one input plus the output image.
StatusOr<CompactionResult> CompactTables(
    std::span<const std::string> input_paths, const std::string& out_path);

}  // namespace strr

#endif  // STRR_STORAGE_CHECKPOINT_COMPACTION_H_
