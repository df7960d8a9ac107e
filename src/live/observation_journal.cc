#include "live/observation_journal.h"

#include <algorithm>
#include <filesystem>

#include "live/recovery_manager.h"
#include "obs/metrics.h"
#include "storage/checkpoint/compaction.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/stopwatch.h"

namespace strr {

namespace fs = std::filesystem;

namespace {

/// WAL AddRecord latency per batch, in µs (excludes the fsync below).
obs::Histogram& WalAppendHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "strr_wal_append_us");
  return h;
}
/// WAL fdatasync latency per batch, in µs (ack = stable storage).
obs::Histogram& WalSyncHistogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("strr_wal_fsync_us");
  return h;
}
/// Memtable seal + WAL rotation latency, in µs.
obs::Histogram& SealHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "strr_wal_memtable_seal_us");
  return h;
}
obs::Counter& AppendFailuresCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_wal_append_failures_total");
  return c;
}
/// Checkpoint serialize + atomic-commit latency, in µs.
obs::Histogram& CheckpointHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "strr_checkpoint_write_us");
  return h;
}
obs::Counter& CompactionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_storage_compactions_total");
  return c;
}
obs::Counter& TablesTruncatedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_storage_tables_truncated_total");
  return c;
}

uint64_t FileBytesOrZero(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

}  // namespace

std::string ObservationTableFileName(const std::string& dir,
                                     uint64_t number) {
  return dir + "/obs_" + std::to_string(number) + ".tbl";
}

std::string WalFileName(const std::string& dir, uint64_t number) {
  return dir + "/wal_" + std::to_string(number) + ".log";
}

StatusOr<std::unique_ptr<ObservationJournal>> ObservationJournal::Open(
    const ObservationJournalOptions& options, const RecoveredLog& recovered) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("observation journal dir is empty");
  }
  if (options.checkpoint_interval_batches > 0 && options.slot_seconds <= 0) {
    return Status::InvalidArgument(
        "checkpointing requires a positive slot_seconds");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::IoError("cannot create journal dir " + options.dir + ": " +
                           ec.message());
  }

  auto journal =
      std::unique_ptr<ObservationJournal>(new ObservationJournal(options));
  journal->next_seq_ = recovered.last_seq + 1;
  journal->next_file_number_ = recovered.next_file_number;
  journal->checkpoint_number_ = recovered.checkpoint_number;
  journal->checkpoint_seq_ = recovered.checkpoint_seq;
  journal->truncate_below_seq_ = recovered.checkpoint_seq;

  // The live table set starts as what recovery validated.
  for (const RecoveredTableMeta& meta : recovered.tables) {
    journal->tables_.push_back(TableMeta{meta.number, meta.first_seq,
                                         meta.last_seq,
                                         FileBytesOrZero(meta.path)});
  }

  // Rebuild the checkpoint accumulator before touching any file: fold the
  // committed checkpoint, then every batch beyond it, batch by batch —
  // the same fold boundaries the original AppendBatch calls used, so a
  // later checkpoint of this state is byte-identical to one the crashed
  // process would have written.
  if (options.checkpoint_interval_batches > 0) {
    journal->ckpt_state_ =
        std::make_unique<CheckpointState>(options.slot_seconds);
    if (!recovered.checkpoint_path.empty()) {
      STRR_ASSIGN_OR_RETURN(ProfileCheckpoint ckpt,
                            ReadProfileCheckpoint(recovered.checkpoint_path));
      if (ckpt.slot_seconds != options.slot_seconds) {
        return Status::InvalidArgument(
            "checkpoint slot_seconds " + std::to_string(ckpt.slot_seconds) +
            " does not match journal slot_seconds " +
            std::to_string(options.slot_seconds) + ": " +
            recovered.checkpoint_path);
      }
      journal->ckpt_state_->FoldUpdates(ckpt.entries);
    }
    CheckpointState* state = journal->ckpt_state_.get();
    STRR_RETURN_IF_ERROR(RecoveryManager::ForEachReplayBatch(
        recovered, [state](const ObservationBatch& batch) {
          state->FoldObservations(batch.observations);
          return Status::OK();
        }));
  }

  // Startup compaction: batches that only the WAL tail held are sealed
  // into a table now, so every old WAL is fully covered and deletable.
  ObservationTableBuilder tail;
  uint64_t tail_first_seq = 0;
  for (const ObservationBatch& batch : recovered.wal_batches) {
    if (batch.seq <= recovered.last_table_seq) continue;
    if (tail.num_batches() == 0) tail_first_seq = batch.seq;
    tail.AddBatch(batch);
  }
  if (tail.num_batches() > 0) {
    uint64_t number = journal->next_file_number_++;
    const std::string path = ObservationTableFileName(options.dir, number);
    STRR_RETURN_IF_ERROR(tail.Finish(path));
    journal->tables_.push_back(TableMeta{number, tail_first_seq,
                                         recovered.last_seq,
                                         FileBytesOrZero(path)});
  }

  // Old WALs (now redundant), files a crash window left fully covered,
  // and stray temp files from interrupted atomic writes go away before
  // the fresh log opens.
  for (const std::string& path : recovered.redundant_paths) {
    fs::remove(path, ec);
  }
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options.dir, ec)) {
    const std::string name = entry.path().filename().string();
    bool is_wal = name.rfind("wal_", 0) == 0 &&
                  name.size() > 8 &&
                  name.compare(name.size() - 4, 4, ".log") == 0;
    bool is_tmp = name.size() > 4 &&
                  name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (is_wal || is_tmp) fs::remove(entry.path(), ec);
  }

  {
    std::lock_guard<std::mutex> lock(journal->mu_);
    STRR_RETURN_IF_ERROR(journal->OpenFreshWalLocked());
  }
  if (journal->maintenance_enabled()) {
    journal->maintenance_ =
        std::thread([j = journal.get()] { j->MaintenanceLoop(); });
  }
  return journal;
}

ObservationJournal::~ObservationJournal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_maintenance_ = true;
  }
  maint_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();

  std::lock_guard<std::mutex> lock(mu_);
  if (broken_.ok() && memtable_.num_batches() > 0) {
    // Best-effort seal so a clean shutdown restarts with no WAL replay;
    // the WAL still covers these batches if the seal fails.
    Status ignored = FlushMemtableLocked();
    (void)ignored;
  }
  if (wal_file_ != nullptr) {
    Status ignored = wal_file_->Close();
    (void)ignored;
  }
}

Status ObservationJournal::OpenFreshWalLocked() {
  uint64_t number = next_file_number_++;
  STRR_ASSIGN_OR_RETURN(wal_file_,
                        AppendOnlyFile::Create(WalFileName(options_.dir,
                                                           number)));
  wal_writer_ = std::make_unique<wal::LogWriter>(wal_file_.get());
  return Status::OK();
}

Status ObservationJournal::FlushMemtableLocked() {
  if (memtable_.num_batches() == 0) return Status::OK();

  const bool obs_on = obs::MetricsRegistry::Global().enabled();
  Stopwatch seal_watch;
  const size_t sealed_batches = memtable_batches_;
  uint64_t table_number = next_file_number_++;
  const std::string table_path =
      ObservationTableFileName(options_.dir, table_number);
  STRR_RETURN_IF_ERROR(memtable_.Finish(table_path));
  // The memtable always holds the contiguous acked suffix
  // [memtable_first_seq_, next_seq_ - 1].
  tables_.push_back(TableMeta{table_number, memtable_first_seq_, next_seq_ - 1,
                              FileBytesOrZero(table_path)});
  memtable_ = ObservationTableBuilder();
  memtable_batches_ = 0;
  ++tables_flushed_;

  // Rotate: new log first, then drop the old one. A crash between the two
  // leaves an extra WAL whose batches the table also holds — recovery
  // deduplicates by sequence number.
  std::string old_wal = wal_file_->path();
  STRR_RETURN_IF_ERROR(wal_file_->Close());
  STRR_RETURN_IF_ERROR(OpenFreshWalLocked());
  std::error_code ec;
  fs::remove(old_wal, ec);  // redundant data; failure is not fatal
  if (obs_on) {
    SealHistogram().Record(static_cast<uint64_t>(seal_watch.ElapsedMicros()));
  }
  if (options_.compaction) maint_cv_.notify_all();
  STRR_LOG(Info) << "observation journal: sealed table " << table_number
                 << " (" << sealed_batches << " batches), rotated WAL";
  return Status::OK();
}

Status ObservationJournal::CheckpointLocked() {
  STRR_RETURN_IF_ERROR(FlushMemtableLocked());
  batches_since_checkpoint_ = 0;
  const uint64_t covered = next_seq_ - 1;
  if (covered == checkpoint_seq_) return Status::OK();  // nothing new acked

  const bool obs_on = obs::MetricsRegistry::Global().enabled();
  Stopwatch watch;
  std::vector<CoalescedUpdate> entries = ckpt_state_->Snapshot();
  const uint64_t number = next_file_number_++;
  const std::string path = CheckpointFileName(options_.dir, number);
  STRR_RETURN_IF_ERROR(WriteProfileCheckpoint(path, covered,
                                              options_.slot_seconds, entries));
  const uint64_t old_number = checkpoint_number_;
  checkpoint_number_ = number;
  checkpoint_seq_ = covered;
  ++checkpoints_written_;
  if (old_number != 0) {
    // Crash before this remove leaves two committed checkpoints; recovery
    // keeps the one covering more and marks the other redundant.
    std::error_code ec;
    fs::remove(CheckpointFileName(options_.dir, old_number), ec);
  }
  truncate_below_seq_ = covered;
  maint_cv_.notify_all();
  if (obs_on) {
    CheckpointHistogram().Record(static_cast<uint64_t>(watch.ElapsedMicros()));
  }
  STRR_LOG(Info) << "observation journal: checkpoint " << number
                 << " covers seq " << covered << " (" << entries.size()
                 << " aggregates)";
  return Status::OK();
}

StatusOr<uint64_t> ObservationJournal::AppendBatch(
    std::span<const SpeedObservation> batch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!broken_.ok()) {
    ++append_errors_;
    return broken_;
  }

  ObservationBatch record;
  record.seq = next_seq_;
  record.observations.assign(batch.begin(), batch.end());
  BinaryWriter payload;
  EncodeObservationBatch(payload, record);

  const bool obs_on = obs::MetricsRegistry::Global().enabled();
  Stopwatch append_watch;
  Status s = wal_writer_->AddRecord(payload.data());
  if (obs_on) {
    WalAppendHistogram().Record(
        static_cast<uint64_t>(append_watch.ElapsedMicros()));
  }
  if (s.ok() && options_.sync_each_batch) {
    Stopwatch sync_watch;
    s = wal_writer_->Sync();
    if (obs_on) {
      WalSyncHistogram().Record(
          static_cast<uint64_t>(sync_watch.ElapsedMicros()));
    }
    if (s.ok()) ++wal_syncs_;
  }
  if (!s.ok()) {
    // Fail-stop: the WAL may now hold a torn fragment (exactly the crash
    // shape readers tolerate at the tail); never write past it.
    broken_ = s;
    ++append_errors_;
    AppendFailuresCounter().Add();
    STRR_LOG(Error) << "observation journal: WAL append failed ("
                    << s.message() << "); journal is now fail-stopped";
    return s;
  }

  ++next_seq_;
  if (memtable_.num_batches() == 0) memtable_first_seq_ = record.seq;
  memtable_.AddBatch(record);
  ++memtable_batches_;
  ++batches_appended_;
  observations_appended_ += record.observations.size();
  wal_bytes_ = wal_file_->size();
  if (ckpt_state_ != nullptr) {
    ckpt_state_->FoldObservations(record.observations);
    ++batches_since_checkpoint_;
  }

  if (memtable_.encoded_size() >= options_.memtable_flush_bytes) {
    Status flush = FlushMemtableLocked();
    if (!flush.ok()) {
      broken_ = flush;
      return flush;
    }
  }
  if (ckpt_state_ != nullptr &&
      batches_since_checkpoint_ >= options_.checkpoint_interval_batches) {
    Status ckpt = CheckpointLocked();
    if (!ckpt.ok()) {
      broken_ = ckpt;
      return ckpt;
    }
  }
  return record.seq;
}

Status ObservationJournal::FlushMemtable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!broken_.ok()) return broken_;
  Status s = FlushMemtableLocked();
  if (!s.ok()) broken_ = s;
  return s;
}

Status ObservationJournal::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (ckpt_state_ == nullptr) {
    return Status::InvalidArgument("checkpointing is not enabled");
  }
  if (!broken_.ok()) return broken_;
  Status s = CheckpointLocked();
  if (!s.ok()) broken_ = s;
  return s;
}

bool ObservationJournal::MaintenanceWorkPendingLocked() const {
  if (!tables_.empty() && tables_.front().last_seq <= truncate_below_seq_) {
    return true;
  }
  if (options_.compaction) {
    size_t begin = 0, count = 0;
    if (FindCompactionRunLocked(&begin, &count)) return true;
  }
  return false;
}

bool ObservationJournal::FindCompactionRunLocked(size_t* begin,
                                                 size_t* count) const {
  size_t run_begin = 0;
  size_t run_len = 0;
  for (size_t i = 0; i < tables_.size(); ++i) {
    const TableMeta& t = tables_[i];
    const bool small = t.bytes < options_.compaction_small_bytes;
    const bool contiguous =
        run_len == 0 || tables_[i - 1].last_seq + 1 == t.first_seq;
    if (small && (run_len == 0 || contiguous)) {
      if (run_len == 0) run_begin = i;
      ++run_len;
      if (run_len >= options_.compaction_min_tables) {
        *begin = run_begin;
        *count = std::min(run_len, options_.compaction_max_tables);
        return true;
      }
    } else if (small) {
      run_begin = i;
      run_len = 1;
    } else {
      run_len = 0;
    }
  }
  return false;
}

void ObservationJournal::RunTruncationLocked(
    std::unique_lock<std::mutex>& lock) {
  std::vector<uint64_t> victims;
  size_t keep = 0;
  for (const TableMeta& t : tables_) {
    if (t.last_seq <= truncate_below_seq_) {
      victims.push_back(t.number);
    } else {
      tables_[keep++] = t;
    }
  }
  if (victims.empty()) return;
  tables_.resize(keep);
  tables_truncated_ += victims.size();
  const uint64_t covered = truncate_below_seq_;
  lock.unlock();
  if (obs::MetricsRegistry::Global().enabled()) {
    TablesTruncatedCounter().Add(victims.size());
  }
  std::error_code ec;
  for (uint64_t number : victims) {
    fs::remove(ObservationTableFileName(options_.dir, number), ec);
  }
  STRR_LOG(Info) << "observation journal: truncated " << victims.size()
                 << " table(s) covered by checkpoint seq " << covered;
  lock.lock();
}

void ObservationJournal::RunCompactionLocked(
    std::unique_lock<std::mutex>& lock) {
  size_t begin = 0, count = 0;
  if (!FindCompactionRunLocked(&begin, &count)) return;
  std::vector<TableMeta> inputs(tables_.begin() + begin,
                                tables_.begin() + begin + count);
  const uint64_t out_number = next_file_number_++;
  const std::string out_path =
      ObservationTableFileName(options_.dir, out_number);
  std::vector<std::string> input_paths;
  input_paths.reserve(inputs.size());
  for (const TableMeta& t : inputs) {
    input_paths.push_back(ObservationTableFileName(options_.dir, t.number));
  }
  lock.unlock();
  StatusOr<CompactionResult> merged = CompactTables(input_paths, out_path);
  lock.lock();
  if (!merged.ok()) {
    STRR_LOG(Warning) << "observation journal: compaction failed ("
                      << merged.status().message() << ")";
    lock.unlock();
    std::error_code ec;
    fs::remove(out_path, ec);
    lock.lock();
    return;
  }
  // Swap: the merged table replaces its inputs in the live set. Only this
  // thread removes tables, so the inputs are still where we left them
  // unless a checkpoint truncated past the run — then the merged output
  // is itself redundant.
  bool all_present = true;
  for (const TableMeta& in : inputs) {
    all_present =
        all_present &&
        std::any_of(tables_.begin(), tables_.end(),
                    [&](const TableMeta& t) { return t.number == in.number; });
  }
  std::vector<std::string> doomed;
  if (!all_present || merged->last_seq <= truncate_below_seq_) {
    doomed.push_back(out_path);
  } else {
    std::erase_if(tables_, [&](const TableMeta& t) {
      return std::any_of(
          inputs.begin(), inputs.end(),
          [&](const TableMeta& in) { return in.number == t.number; });
    });
    TableMeta meta{out_number, merged->first_seq, merged->last_seq,
                   merged->output_bytes};
    tables_.insert(std::lower_bound(tables_.begin(), tables_.end(), meta,
                                    [](const TableMeta& a, const TableMeta& b) {
                                      return a.first_seq < b.first_seq;
                                    }),
                   meta);
    ++compactions_;
    tables_compacted_ += inputs.size();
    for (const std::string& path : input_paths) doomed.push_back(path);
  }
  lock.unlock();
  if (obs::MetricsRegistry::Global().enabled()) CompactionsCounter().Add();
  std::error_code ec;
  for (const std::string& path : doomed) fs::remove(path, ec);
  STRR_LOG(Info) << "observation journal: compacted " << inputs.size()
                 << " table(s) into table " << out_number << " (seq "
                 << merged->first_seq << ".." << merged->last_seq << ")";
  lock.lock();
}

void ObservationJournal::MaintenanceLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    maint_cv_.wait(lock, [&] {
      return stop_maintenance_ || MaintenanceWorkPendingLocked();
    });
    if (stop_maintenance_) break;
    maintenance_busy_ = true;
    if (!tables_.empty() && tables_.front().last_seq <= truncate_below_seq_) {
      RunTruncationLocked(lock);
    } else {
      RunCompactionLocked(lock);
    }
    maintenance_busy_ = false;
    idle_cv_.notify_all();
  }
}

void ObservationJournal::WaitForMaintenance() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!maintenance_.joinable()) return;
  idle_cv_.wait(lock, [&] {
    return stop_maintenance_ ||
           (!maintenance_busy_ && !MaintenanceWorkPendingLocked());
  });
}

uint64_t ObservationJournal::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

ObservationJournal::Stats ObservationJournal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.batches_appended = batches_appended_;
  out.observations_appended = observations_appended_;
  out.wal_bytes = wal_bytes_;
  out.wal_syncs = wal_syncs_;
  out.tables_flushed = tables_flushed_;
  out.append_errors = append_errors_;
  out.memtable_bytes = memtable_.encoded_size();
  out.memtable_batches = memtable_batches_;
  out.checkpoints_written = checkpoints_written_;
  out.checkpoint_seq = checkpoint_seq_;
  out.checkpoint_entries = ckpt_state_ != nullptr ? ckpt_state_->size() : 0;
  out.compactions = compactions_;
  out.tables_compacted = tables_compacted_;
  out.tables_truncated = tables_truncated_;
  out.live_tables = tables_.size();
  return out;
}

}  // namespace strr
