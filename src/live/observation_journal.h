// ObservationJournal: the durability spine of the live tier. Every
// accepted observation batch is appended to a checksummed WAL record (and
// optionally fdatasync'd) *before* it is published — the append is the ack
// point. Acked batches also accumulate in an in-memory memtable (a table
// builder) that is sealed into an immutable, checksummed observation
// table once it crosses a byte threshold, after which the WAL rotates and
// the fully-covered old log is deleted.
//
// On-disk layout inside the journal directory (one shared file-number
// space, so recovery can order everything by number):
//
//   obs_<N>.tbl   sealed observation tables (atomic rename publish)
//   wal_<N>.log   the single active WAL (older ones exist only in the
//                 crash window between table seal and log delete)
//   ckpt_<N>.ckpt the newest profile checkpoint (older ones exist only in
//                 the crash window between commit and delete)
//
// Startup (Open) compacts any WAL-tail batches recovered by the
// RecoveryManager into a fresh table first, so every old WAL can be
// deleted and the journal always restarts with an empty active log.
//
// With `checkpoint_interval_batches` > 0 the journal additionally folds
// every acked batch into a CheckpointState and periodically commits it as
// a profile checkpoint covering the acked high-water sequence, then hands
// the tables that checkpoint covers to a low-priority maintenance thread
// for deletion — bounding on-disk history and making restart O(delta).
// With `compaction` on, the same maintenance thread merges runs of small
// sealed tables into larger seq-deduplicated tables, swapped into the
// live table set atomically under the journal mutex. Every crash window
// (checkpoint committed but tables not yet truncated, merged table
// committed but inputs not yet deleted) leaves only *redundant* files,
// which recovery detects and deduplicates.
#ifndef STRR_LIVE_OBSERVATION_JOURNAL_H_
#define STRR_LIVE_OBSERVATION_JOURNAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "live/observation.h"
#include "storage/checkpoint/profile_checkpoint.h"
#include "storage/fs_util.h"
#include "storage/obs_table.h"
#include "storage/wal/log_writer.h"
#include "util/result.h"
#include "util/status.h"

namespace strr {

struct ObservationJournalOptions {
  std::string dir;
  /// Seal the memtable into a table once its encoded batches reach this
  /// many bytes (then rotate the WAL).
  size_t memtable_flush_bytes = 1 << 20;
  /// fdatasync the WAL after every batch append. On: the ack point is
  /// stable storage. Off: the ack point is the OS page cache (process
  /// crashes keep everything, power loss may cost the unsynced tail).
  bool sync_each_batch = true;

  /// Profile slot width the checkpoint aggregates use; must match the
  /// serving profile's slot_seconds. Only read when checkpointing is on.
  int64_t slot_seconds = 3600;
  /// Commit a profile checkpoint (then truncate the tables and WAL it
  /// covers) every N acked batches. 0 disables checkpointing.
  uint64_t checkpoint_interval_batches = 0;
  /// Background-merge runs of small sealed tables into larger ones.
  bool compaction = false;
  /// A sealed table smaller than this many bytes is a merge candidate.
  size_t compaction_small_bytes = 4 << 20;
  /// Merge once a contiguous run of at least this many candidates exists.
  size_t compaction_min_tables = 4;
  /// Upper bound on inputs merged per compaction.
  size_t compaction_max_tables = 8;
};

/// Footer metadata of one sealed table that contributes to replay; the
/// RecoveryManager validates the file fully, then keeps only this so
/// recovery memory stays bounded (Replay re-reads tables one at a time).
struct RecoveredTableMeta {
  uint64_t number = 0;
  std::string path;
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  uint64_t num_observations = 0;
};

/// What RecoveryManager reconstructed from a journal directory; feeds both
/// the replay into the live profile manager and ObservationJournal::Open.
struct RecoveredLog {
  /// Newest committed profile checkpoint ("" = none): replay loads it
  /// first and only batches with seq > checkpoint_seq are replayed.
  std::string checkpoint_path;
  uint64_t checkpoint_number = 0;
  uint64_t checkpoint_seq = 0;
  /// Sealed tables contributing batches beyond the checkpoint, in replay
  /// order (ascending first_seq; overlaps deduplicate by sequence).
  std::vector<RecoveredTableMeta> tables;
  /// Batches only the WAL tail held (seq > last_table_seq), seq-ordered
  /// and deduplicated.
  std::vector<ObservationBatch> wal_batches;
  uint64_t last_seq = 0;        ///< highest recovered batch seq (0 if none)
  uint64_t last_table_seq = 0;  ///< covered by checkpoint + sealed tables
  uint64_t next_file_number = 1;
  bool wal_tail_torn = false;   ///< a crash tore the final WAL record
  size_t tables_loaded = 0;
  size_t wal_files_loaded = 0;
  /// Files a crash window left behind that newer files fully cover
  /// (superseded checkpoints, tables whose range a merged table or the
  /// checkpoint already holds); ObservationJournal::Open deletes them.
  std::vector<std::string> redundant_paths;

  /// Batches Replay will fold beyond the checkpoint.
  uint64_t replay_batches() const { return last_seq - checkpoint_seq; }
};

/// File-name helpers shared with RecoveryManager.
std::string ObservationTableFileName(const std::string& dir, uint64_t number);
std::string WalFileName(const std::string& dir, uint64_t number);

class ObservationJournal {
 public:
  struct Stats {
    uint64_t batches_appended = 0;
    uint64_t observations_appended = 0;
    uint64_t wal_bytes = 0;
    uint64_t wal_syncs = 0;
    uint64_t tables_flushed = 0;
    uint64_t append_errors = 0;
    size_t memtable_bytes = 0;
    uint64_t memtable_batches = 0;
    // Storage-engine maintenance (zero unless the knobs are on).
    uint64_t checkpoints_written = 0;
    uint64_t checkpoint_seq = 0;      ///< acked seq the newest ckpt covers
    uint64_t checkpoint_entries = 0;  ///< live (segment, slot) aggregates
    uint64_t compactions = 0;
    uint64_t tables_compacted = 0;    ///< inputs consumed by merges
    uint64_t tables_truncated = 0;    ///< tables deleted under a checkpoint
    uint64_t live_tables = 0;         ///< sealed tables currently on disk
  };

  /// Opens the journal over a recovered directory: compacts the recovered
  /// WAL tail into a table, deletes every old WAL (and stray .tmp and
  /// crash-redundant files), and starts a fresh active log. `recovered`
  /// must come from RecoveryManager::Recover over the same directory.
  /// When checkpointing is enabled this also rebuilds the checkpoint
  /// accumulator (checkpoint entries + recovered batches) and starts the
  /// maintenance thread.
  static StatusOr<std::unique_ptr<ObservationJournal>> Open(
      const ObservationJournalOptions& options, const RecoveredLog& recovered);

  ~ObservationJournal();

  ObservationJournal(const ObservationJournal&) = delete;
  ObservationJournal& operator=(const ObservationJournal&) = delete;

  /// Assigns the next sequence number, appends the batch to the WAL (the
  /// ack point), and feeds the memtable — flushing/rotating when full.
  /// Thread-safe. After the first failure the journal is fail-stop: the
  /// sticky error is returned and nothing further is written (a failed
  /// append may leave a torn WAL tail, which recovery tolerates).
  StatusOr<uint64_t> AppendBatch(std::span<const SpeedObservation> batch);

  /// Seals the current memtable (if non-empty) and rotates the WAL.
  Status FlushMemtable();

  /// Commits a profile checkpoint covering every acked batch now (flushes
  /// the memtable first) and schedules truncation of the covered tables.
  /// InvalidArgument unless checkpointing is enabled.
  Status Checkpoint();

  /// Blocks until the maintenance thread has no pending truncation or
  /// compaction work (no-op when maintenance is off). Test/bench hook —
  /// production callers never need to wait.
  void WaitForMaintenance();

  /// Highest sequence number acked so far (0 if none).
  uint64_t last_seq() const;

  Stats stats() const;
  const std::string& dir() const { return options_.dir; }

 private:
  /// A sealed table on disk (the journal's authoritative live file set;
  /// maintenance swaps entries under mu_, recovery derives the same set
  /// from the directory). Kept sorted by first_seq.
  struct TableMeta {
    uint64_t number = 0;
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;
    uint64_t bytes = 0;
  };

  explicit ObservationJournal(const ObservationJournalOptions& options)
      : options_(options) {}

  Status OpenFreshWalLocked();
  Status FlushMemtableLocked();
  Status CheckpointLocked();
  bool MaintenanceWorkPendingLocked() const;
  bool FindCompactionRunLocked(size_t* begin, size_t* count) const;
  void MaintenanceLoop();
  void RunTruncationLocked(std::unique_lock<std::mutex>& lock);
  void RunCompactionLocked(std::unique_lock<std::mutex>& lock);

  bool maintenance_enabled() const {
    return options_.checkpoint_interval_batches > 0 || options_.compaction;
  }

  ObservationJournalOptions options_;

  mutable std::mutex mu_;
  std::unique_ptr<AppendOnlyFile> wal_file_;
  std::unique_ptr<wal::LogWriter> wal_writer_;
  ObservationTableBuilder memtable_;
  uint64_t memtable_batches_ = 0;
  uint64_t memtable_first_seq_ = 0;  // first seq in the open memtable
  uint64_t next_seq_ = 1;
  uint64_t next_file_number_ = 1;
  Status broken_;  // sticky first failure; OK while healthy

  std::vector<TableMeta> tables_;  // sorted by first_seq
  std::unique_ptr<CheckpointState> ckpt_state_;  // non-null iff enabled
  uint64_t batches_since_checkpoint_ = 0;
  uint64_t checkpoint_number_ = 0;  // 0 = no committed checkpoint
  uint64_t checkpoint_seq_ = 0;

  // Maintenance thread state (all guarded by mu_).
  std::thread maintenance_;
  std::condition_variable maint_cv_;   // work arrived / stop requested
  std::condition_variable idle_cv_;    // work drained (WaitForMaintenance)
  bool stop_maintenance_ = false;
  bool maintenance_busy_ = false;
  uint64_t truncate_below_seq_ = 0;  // tables with last_seq <= this die

  uint64_t batches_appended_ = 0;
  uint64_t observations_appended_ = 0;
  uint64_t wal_bytes_ = 0;
  uint64_t wal_syncs_ = 0;
  uint64_t tables_flushed_ = 0;
  uint64_t append_errors_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t compactions_ = 0;
  uint64_t tables_compacted_ = 0;
  uint64_t tables_truncated_ = 0;
};

}  // namespace strr

#endif  // STRR_LIVE_OBSERVATION_JOURNAL_H_
