// Storage-engine completion tests: profile checkpoint round trips and
// corruption handling, journal checkpoint/truncate/recover bit-identity
// against a full-replay oracle, truncation-point sweeps, background
// compaction vs a sequential-read oracle (including crash-window overlap
// recovery), bounded-memory chunked replay, and the LRU block cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "live/epoch_manager.h"
#include "live/live_profile_manager.h"
#include "live/observation_journal.h"
#include "live/recovery_manager.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/checkpoint/compaction.h"
#include "storage/checkpoint/profile_checkpoint.h"
#include "storage/file_manager.h"
#include "storage/fs_util.h"
#include "storage/obs_table.h"
#include "tests/test_util.h"
#include "tools/crash_stream.h"

namespace strr {
namespace {

namespace fs = std::filesystem;
using testing_util::GetSharedStack;
using testing_util::MakeTempDir;

constexpr uint32_t kStreamSegments = 100;
constexpr int64_t kSlotSeconds = 3600;

std::string FreshDir(const std::string& tag) {
  std::string dir = MakeTempDir(tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ObservationBatch StreamBatch(uint64_t seq) {
  return ObservationBatch{seq, crash_stream::GenBatch(seq, kStreamSegments)};
}

/// Oracle fold of the deterministic stream 1..last_seq, batch by batch —
/// exactly the boundaries the journal folds at, so sums are bit-exact.
CheckpointState OracleState(uint64_t last_seq) {
  CheckpointState state(kSlotSeconds);
  for (uint64_t seq = 1; seq <= last_seq; ++seq) {
    state.FoldObservations(crash_stream::GenBatch(seq, kStreamSegments));
  }
  return state;
}

void ExpectUpdatesBitIdentical(const std::vector<CoalescedUpdate>& got,
                               const std::vector<CoalescedUpdate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].segment, want[i].segment) << "entry " << i;
    EXPECT_EQ(got[i].slot_tod, want[i].slot_tod) << "entry " << i;
    EXPECT_EQ(got[i].min_speed, want[i].min_speed) << "entry " << i;
    EXPECT_EQ(got[i].max_speed, want[i].max_speed) << "entry " << i;
    EXPECT_EQ(got[i].sum_speed, want[i].sum_speed) << "entry " << i;
    EXPECT_EQ(got[i].count, want[i].count) << "entry " << i;
  }
}

size_t CountFiles(const std::string& dir, const std::string& suffix) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ++n;
    }
  }
  return n;
}

// --- Checkpoint file format --------------------------------------------------

TEST(ProfileCheckpointTest, RoundTripIsByteStable) {
  std::string dir = FreshDir("ckpt_roundtrip");
  std::vector<CoalescedUpdate> entries = OracleState(30).Snapshot();
  ASSERT_FALSE(entries.empty());

  std::string path = CheckpointFileName(dir, 7);
  STRR_ASSERT_OK(WriteProfileCheckpoint(path, 30, kSlotSeconds, entries));
  auto ckpt = ReadProfileCheckpoint(path);
  STRR_ASSERT_OK(ckpt.status());
  EXPECT_EQ(ckpt->covered_seq, 30u);
  EXPECT_EQ(ckpt->slot_seconds, kSlotSeconds);
  ExpectUpdatesBitIdentical(ckpt->entries, entries);

  // The same state always serializes to the same bytes.
  std::string path2 = CheckpointFileName(dir, 8);
  STRR_ASSERT_OK(WriteProfileCheckpoint(path2, 30, kSlotSeconds, entries));
  auto a = ReadFileToString(path);
  auto b = ReadFileToString(path2);
  STRR_ASSERT_OK(a.status());
  STRR_ASSERT_OK(b.status());
  EXPECT_EQ(*a, *b);
}

TEST(ProfileCheckpointTest, EmptyCheckpointRoundTrips) {
  std::string dir = FreshDir("ckpt_empty");
  std::string path = CheckpointFileName(dir, 1);
  STRR_ASSERT_OK(WriteProfileCheckpoint(path, 0, kSlotSeconds, {}));
  auto ckpt = ReadProfileCheckpoint(path);
  STRR_ASSERT_OK(ckpt.status());
  EXPECT_EQ(ckpt->covered_seq, 0u);
  EXPECT_TRUE(ckpt->entries.empty());
}

TEST(ProfileCheckpointTest, MutationSweepIsAlwaysTypedCorruption) {
  std::string dir = FreshDir("ckpt_flip");
  std::string path = CheckpointFileName(dir, 1);
  STRR_ASSERT_OK(WriteProfileCheckpoint(path, 12, kSlotSeconds,
                                        OracleState(12).Snapshot()));
  auto original = ReadFileToString(path);
  STRR_ASSERT_OK(original.status());

  size_t stride = std::max<size_t>(1, original->size() / 61);
  for (size_t pos = 0; pos < original->size(); pos += stride) {
    std::string mutated = *original;
    mutated[pos] ^= 0x08;
    auto parsed = ParseProfileCheckpoint(mutated, "mutated");
    ASSERT_FALSE(parsed.ok()) << "pos=" << pos;
    EXPECT_TRUE(parsed.status().IsCorruption())
        << "pos=" << pos << " " << parsed.status().ToString();
  }
  for (size_t cut : {size_t{0}, size_t{7}, original->size() / 2,
                     original->size() - 1}) {
    auto parsed = ParseProfileCheckpoint(original->substr(0, cut), "cut");
    ASSERT_FALSE(parsed.ok()) << "cut=" << cut;
    EXPECT_TRUE(parsed.status().IsCorruption()) << "cut=" << cut;
  }
}

TEST(CheckpointStateTest, FoldIsBatchingIndependentForExtremes) {
  // min/max/count must not depend on how the stream was split into
  // batches (the bit-identity argument recovery relies on).
  std::vector<SpeedObservation> all;
  for (uint64_t seq = 1; seq <= 20; ++seq) {
    auto batch = crash_stream::GenBatch(seq, kStreamSegments);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  CheckpointState per_batch = OracleState(20);
  CheckpointState one_shot(kSlotSeconds);
  one_shot.FoldObservations(all);

  std::vector<CoalescedUpdate> a = per_batch.Snapshot();
  std::vector<CoalescedUpdate> b = one_shot.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].segment, b[i].segment);
    EXPECT_EQ(a[i].slot_tod, b[i].slot_tod) << "slot_tod must be canonical";
    EXPECT_EQ(a[i].min_speed, b[i].min_speed);
    EXPECT_EQ(a[i].max_speed, b[i].max_speed);
    EXPECT_EQ(a[i].count, b[i].count);
    // Canonicalized to the slot start.
    EXPECT_EQ(a[i].slot_tod % kSlotSeconds, 0);
  }
}

// --- Journal checkpointing ---------------------------------------------------

TEST(JournalCheckpointTest, CheckpointTruncatesAndRecoversBitIdentical) {
  std::string dir = FreshDir("ckpt_journal");
  constexpr uint64_t kBatches = 60;
  {
    auto recovered = RecoveryManager::Recover(dir);
    STRR_ASSERT_OK(recovered.status());
    ObservationJournalOptions jopt;
    jopt.dir = dir;
    jopt.memtable_flush_bytes = 512;  // several table seals
    jopt.slot_seconds = kSlotSeconds;
    jopt.checkpoint_interval_batches = 25;
    auto journal = ObservationJournal::Open(jopt, *recovered);
    STRR_ASSERT_OK(journal.status());
    for (uint64_t seq = 1; seq <= kBatches; ++seq) {
      STRR_ASSERT_OK(
          (*journal)->AppendBatch(StreamBatch(seq).observations).status());
    }
    (*journal)->WaitForMaintenance();
    auto stats = (*journal)->stats();
    EXPECT_GE(stats.checkpoints_written, 2u);
    EXPECT_EQ(stats.checkpoint_seq, 50u);
    EXPECT_GT(stats.checkpoint_entries, 0u);
    EXPECT_GT(stats.tables_truncated, 0u);
  }
  EXPECT_EQ(CountFiles(dir, ".ckpt"), 1u);

  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  EXPECT_EQ(recovered->checkpoint_seq, 50u);
  EXPECT_EQ(recovered->last_seq, kBatches);
  EXPECT_EQ(recovered->replay_batches(), kBatches - 50);

  // Delta batches beyond the checkpoint are bit-identical to the stream.
  auto delta = RecoveryManager::CollectBatches(*recovered);
  STRR_ASSERT_OK(delta.status());
  ASSERT_EQ(delta->size(), kBatches - 50);
  for (size_t i = 0; i < delta->size(); ++i) {
    EXPECT_EQ((*delta)[i].seq, 50 + i + 1);
  }

  // Checkpoint aggregates == oracle fold of the covered stream, sums
  // included (same per-batch fold boundaries).
  auto ckpt = ReadProfileCheckpoint(recovered->checkpoint_path);
  STRR_ASSERT_OK(ckpt.status());
  ExpectUpdatesBitIdentical(ckpt->entries, OracleState(50).Snapshot());

  // Checkpoint + delta folds to the identical full-stream state.
  CheckpointState rebuilt(kSlotSeconds);
  rebuilt.FoldUpdates(ckpt->entries);
  for (const ObservationBatch& batch : *delta) {
    rebuilt.FoldObservations(batch.observations);
  }
  ExpectUpdatesBitIdentical(rebuilt.Snapshot(),
                            OracleState(kBatches).Snapshot());
}

TEST(JournalCheckpointTest, TruncationPointSweep) {
  // Whatever the checkpoint interval (hence wherever truncation lands
  // relative to table boundaries), recovery reproduces the full state.
  for (uint64_t interval : {1u, 7u, 13u, 40u}) {
    std::string dir = FreshDir("ckpt_sweep_" + std::to_string(interval));
    constexpr uint64_t kBatches = 41;
    {
      auto recovered = RecoveryManager::Recover(dir);
      STRR_ASSERT_OK(recovered.status());
      ObservationJournalOptions jopt;
      jopt.dir = dir;
      jopt.memtable_flush_bytes = 700;
      jopt.slot_seconds = kSlotSeconds;
      jopt.checkpoint_interval_batches = interval;
      auto journal = ObservationJournal::Open(jopt, *recovered);
      STRR_ASSERT_OK(journal.status());
      for (uint64_t seq = 1; seq <= kBatches; ++seq) {
        STRR_ASSERT_OK(
            (*journal)->AppendBatch(StreamBatch(seq).observations).status());
      }
      (*journal)->WaitForMaintenance();
    }
    auto recovered = RecoveryManager::Recover(dir);
    STRR_ASSERT_OK(recovered.status());
    EXPECT_EQ(recovered->last_seq, kBatches) << "interval=" << interval;
    EXPECT_GT(recovered->checkpoint_seq, 0u) << "interval=" << interval;

    CheckpointState rebuilt(kSlotSeconds);
    if (!recovered->checkpoint_path.empty()) {
      auto ckpt = ReadProfileCheckpoint(recovered->checkpoint_path);
      STRR_ASSERT_OK(ckpt.status());
      rebuilt.FoldUpdates(ckpt->entries);
    }
    STRR_ASSERT_OK(RecoveryManager::ForEachReplayBatch(
        *recovered, [&](const ObservationBatch& batch) {
          rebuilt.FoldObservations(batch.observations);
          return Status::OK();
        }));
    ExpectUpdatesBitIdentical(rebuilt.Snapshot(),
                              OracleState(kBatches).Snapshot());
  }
}

TEST(JournalCheckpointTest, RestartContinuesAcrossCheckpoint) {
  // Re-opening a checkpointed journal rebuilds the accumulator from the
  // checkpoint + residual batches; the next checkpoint still matches the
  // full-stream oracle.
  std::string dir = FreshDir("ckpt_restart");
  ObservationJournalOptions jopt;
  jopt.dir = dir;
  jopt.memtable_flush_bytes = 512;
  jopt.slot_seconds = kSlotSeconds;
  jopt.checkpoint_interval_batches = 10;
  {
    auto recovered = RecoveryManager::Recover(dir);
    STRR_ASSERT_OK(recovered.status());
    auto journal = ObservationJournal::Open(jopt, *recovered);
    STRR_ASSERT_OK(journal.status());
    for (uint64_t seq = 1; seq <= 25; ++seq) {
      STRR_ASSERT_OK(
          (*journal)->AppendBatch(StreamBatch(seq).observations).status());
    }
    (*journal)->WaitForMaintenance();
  }
  {
    auto recovered = RecoveryManager::Recover(dir);
    STRR_ASSERT_OK(recovered.status());
    EXPECT_EQ(recovered->last_seq, 25u);
    auto journal = ObservationJournal::Open(jopt, *recovered);
    STRR_ASSERT_OK(journal.status());
    for (uint64_t seq = 26; seq <= 40; ++seq) {
      auto acked = (*journal)->AppendBatch(StreamBatch(seq).observations);
      STRR_ASSERT_OK(acked.status());
      EXPECT_EQ(*acked, seq);
    }
    // An explicit checkpoint covers everything acked so far.
    STRR_ASSERT_OK((*journal)->Checkpoint());
    (*journal)->WaitForMaintenance();
    EXPECT_EQ((*journal)->stats().checkpoint_seq, 40u);
  }
  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  EXPECT_EQ(recovered->checkpoint_seq, 40u);
  auto ckpt = ReadProfileCheckpoint(recovered->checkpoint_path);
  STRR_ASSERT_OK(ckpt.status());
  ExpectUpdatesBitIdentical(ckpt->entries, OracleState(40).Snapshot());
}

TEST(JournalCheckpointTest, CheckpointRequiresEnabledKnob) {
  std::string dir = FreshDir("ckpt_disabled");
  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  ObservationJournalOptions jopt;
  jopt.dir = dir;
  auto journal = ObservationJournal::Open(jopt, *recovered);
  STRR_ASSERT_OK(journal.status());
  Status s = (*journal)->Checkpoint();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(RecoveryManagerTest, SupersededCheckpointIsRedundantAndCorruptIsFatal) {
  std::string dir = FreshDir("ckpt_windows");
  // Two committed checkpoints (the crash window between committing a new
  // one and deleting the old): the one covering more wins.
  STRR_ASSERT_OK(WriteProfileCheckpoint(CheckpointFileName(dir, 3), 10,
                                        kSlotSeconds,
                                        OracleState(10).Snapshot()));
  STRR_ASSERT_OK(WriteProfileCheckpoint(CheckpointFileName(dir, 5), 20,
                                        kSlotSeconds,
                                        OracleState(20).Snapshot()));
  // Tables continuing past the newest checkpoint.
  ObservationTableBuilder table;
  for (uint64_t seq = 21; seq <= 23; ++seq) table.AddBatch(StreamBatch(seq));
  STRR_ASSERT_OK(table.Finish(ObservationTableFileName(dir, 6)));
  // A stray mid-write temp file must be ignored.
  STRR_ASSERT_OK(AtomicWriteFile(dir + "/ckpt_9.ckpt.tmp", "garbage"));

  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  EXPECT_EQ(recovered->checkpoint_seq, 20u);
  EXPECT_EQ(recovered->checkpoint_number, 5u);
  EXPECT_EQ(recovered->last_seq, 23u);
  bool old_redundant = false;
  for (const std::string& path : recovered->redundant_paths) {
    if (path == CheckpointFileName(dir, 3)) old_redundant = true;
  }
  EXPECT_TRUE(old_redundant);

  // A committed-but-corrupt checkpoint is fatal, never silently skipped.
  {
    auto bytes = ReadFileToString(CheckpointFileName(dir, 5));
    STRR_ASSERT_OK(bytes.status());
    std::string mutated = *bytes;
    mutated[mutated.size() / 2] ^= 0x01;
    std::ofstream out(CheckpointFileName(dir, 5),
                      std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  auto broken = RecoveryManager::Recover(dir);
  ASSERT_FALSE(broken.ok());
  EXPECT_TRUE(broken.status().IsCorruption()) << broken.status().ToString();
}

// --- Compaction --------------------------------------------------------------

TEST(CompactionTest, MergeMatchesSequentialReadOracle) {
  std::string dir = FreshDir("compact_merge");
  std::vector<std::string> inputs;
  uint64_t seq = 1;
  for (uint64_t n = 1; n <= 4; ++n) {
    ObservationTableBuilder table;
    for (int i = 0; i < 5; ++i) table.AddBatch(StreamBatch(seq++));
    std::string path = ObservationTableFileName(dir, n);
    STRR_ASSERT_OK(table.Finish(path));
    inputs.push_back(path);
  }
  std::string out = ObservationTableFileName(dir, 9);
  auto result = CompactTables(inputs, out);
  STRR_ASSERT_OK(result.status());
  EXPECT_EQ(result->first_seq, 1u);
  EXPECT_EQ(result->last_seq, 20u);
  EXPECT_EQ(result->batches, 20u);

  auto merged = ObservationTable::Open(out);
  STRR_ASSERT_OK(merged.status());
  std::vector<ObservationBatch> got = merged->TakeBatches();
  ASSERT_EQ(got.size(), 20u);
  for (uint64_t s = 1; s <= 20; ++s) {
    const ObservationBatch& batch = got[s - 1];
    ASSERT_EQ(batch.seq, s);
    std::vector<SpeedObservation> want =
        crash_stream::GenBatch(s, kStreamSegments);
    ASSERT_EQ(batch.observations.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(batch.observations[k].segment, want[k].segment);
      EXPECT_EQ(batch.observations[k].time_of_day_sec,
                want[k].time_of_day_sec);
      EXPECT_EQ(batch.observations[k].speed_mps, want[k].speed_mps);
    }
  }
}

TEST(CompactionTest, OverlapDeduplicatesAndGapIsCorruption) {
  std::string dir = FreshDir("compact_edge");
  auto build = [&](uint64_t number, uint64_t first,
                   uint64_t last) -> std::string {
    ObservationTableBuilder table;
    for (uint64_t s = first; s <= last; ++s) table.AddBatch(StreamBatch(s));
    std::string path = ObservationTableFileName(dir, number);
    EXPECT_TRUE(table.Finish(path).ok());
    return path;
  };
  // Overlap: [1,4] + [3,6] merges to exactly 1..6.
  std::vector<std::string> overlap = {build(1, 1, 4), build(2, 3, 6)};
  auto merged = CompactTables(overlap, ObservationTableFileName(dir, 5));
  STRR_ASSERT_OK(merged.status());
  EXPECT_EQ(merged->batches, 6u);
  EXPECT_EQ(merged->last_seq, 6u);

  // Gap: [1,2] + [5,6] is Corruption, no output committed.
  std::vector<std::string> gapped = {build(3, 1, 2), build(4, 5, 6)};
  std::string out = ObservationTableFileName(dir, 6);
  auto gap = CompactTables(gapped, out);
  ASSERT_FALSE(gap.ok());
  EXPECT_TRUE(gap.status().IsCorruption()) << gap.status().ToString();
  EXPECT_FALSE(fs::exists(out));
}

TEST(JournalCompactionTest, BackgroundMergeReducesTablesKeepsStream) {
  std::string dir = FreshDir("compact_journal");
  constexpr uint64_t kBatches = 80;
  size_t tables_before = 0;
  {
    auto recovered = RecoveryManager::Recover(dir);
    STRR_ASSERT_OK(recovered.status());
    ObservationJournalOptions jopt;
    jopt.dir = dir;
    jopt.memtable_flush_bytes = 512;  // many small tables
    jopt.compaction = true;
    jopt.compaction_small_bytes = 1 << 20;
    jopt.compaction_min_tables = 3;
    jopt.compaction_max_tables = 6;
    auto journal = ObservationJournal::Open(jopt, *recovered);
    STRR_ASSERT_OK(journal.status());
    for (uint64_t seq = 1; seq <= kBatches; ++seq) {
      STRR_ASSERT_OK(
          (*journal)->AppendBatch(StreamBatch(seq).observations).status());
    }
    (*journal)->WaitForMaintenance();
    auto stats = (*journal)->stats();
    EXPECT_GT(stats.compactions, 0u);
    EXPECT_GT(stats.tables_compacted, stats.compactions)
        << "each merge consumes several inputs";
    tables_before = stats.tables_flushed;
    EXPECT_LT(stats.live_tables, stats.tables_flushed);
  }
  EXPECT_LT(CountFiles(dir, ".tbl"), tables_before);

  // The merged directory still recovers the exact full stream.
  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  EXPECT_EQ(recovered->last_seq, kBatches);
  auto batches = RecoveryManager::CollectBatches(*recovered);
  STRR_ASSERT_OK(batches.status());
  ASSERT_EQ(batches->size(), kBatches);
  for (uint64_t seq = 1; seq <= kBatches; ++seq) {
    EXPECT_EQ((*batches)[seq - 1].seq, seq);
  }
}

TEST(RecoveryManagerTest, CompactionCrashWindowMergedBesideInputs) {
  // The swap crash window: the merged table is committed but the inputs
  // are not yet deleted. Recovery must keep exactly one copy of every
  // batch and report the covered inputs as redundant.
  std::string dir = FreshDir("compact_crash");
  for (uint64_t n = 1; n <= 3; ++n) {
    ObservationTableBuilder table;
    for (uint64_t s = (n - 1) * 4 + 1; s <= n * 4; ++s) {
      table.AddBatch(StreamBatch(s));
    }
    STRR_ASSERT_OK(table.Finish(ObservationTableFileName(dir, n)));
  }
  // Merged table covering all of 1..12, higher file number.
  {
    std::vector<std::string> inputs;
    for (uint64_t n = 1; n <= 3; ++n) {
      inputs.push_back(ObservationTableFileName(dir, n));
    }
    STRR_ASSERT_OK(
        CompactTables(inputs, ObservationTableFileName(dir, 4)).status());
  }
  // Plus a table continuing past the merge (the live tail).
  {
    ObservationTableBuilder table;
    for (uint64_t s = 13; s <= 15; ++s) table.AddBatch(StreamBatch(s));
    STRR_ASSERT_OK(table.Finish(ObservationTableFileName(dir, 5)));
  }

  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  EXPECT_EQ(recovered->last_seq, 15u);
  EXPECT_EQ(recovered->redundant_paths.size(), 3u);
  auto batches = RecoveryManager::CollectBatches(*recovered);
  STRR_ASSERT_OK(batches.status());
  ASSERT_EQ(batches->size(), 15u);
  for (uint64_t seq = 1; seq <= 15; ++seq) {
    EXPECT_EQ((*batches)[seq - 1].seq, seq);
  }

  // Opening the journal over this recovery deletes the redundant inputs.
  ObservationJournalOptions jopt;
  jopt.dir = dir;
  auto journal = ObservationJournal::Open(jopt, *recovered);
  STRR_ASSERT_OK(journal.status());
  EXPECT_FALSE(fs::exists(ObservationTableFileName(dir, 1)));
  EXPECT_FALSE(fs::exists(ObservationTableFileName(dir, 2)));
  EXPECT_FALSE(fs::exists(ObservationTableFileName(dir, 3)));
  EXPECT_TRUE(fs::exists(ObservationTableFileName(dir, 4)));
}

// --- Chunked replay (bounded-memory regression) ------------------------------

TEST(ReplayChunkTest, ForcedSmallChunksMatchUnchunkedReplay) {
  // The re-coalesce map is bounded by chunk_observations; a forced-tiny
  // chunk must publish the same profile extremes as one big chunk.
  auto& stack = GetSharedStack();
  const uint32_t num_segments =
      static_cast<uint32_t>(stack.dataset.network.NumSegments());
  std::string dir = FreshDir("replay_chunk");
  constexpr uint64_t kBatches = 30;
  {
    auto recovered = RecoveryManager::Recover(dir);
    STRR_ASSERT_OK(recovered.status());
    ObservationJournalOptions jopt;
    jopt.dir = dir;
    jopt.memtable_flush_bytes = 1024;
    auto journal = ObservationJournal::Open(jopt, *recovered);
    STRR_ASSERT_OK(journal.status());
    for (uint64_t seq = 1; seq <= kBatches; ++seq) {
      STRR_ASSERT_OK(
          (*journal)
              ->AppendBatch(crash_stream::GenBatch(seq, num_segments))
              .status());
    }
  }
  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());

  const SpeedProfile& base = stack.engine->speed_profile();
  EpochManager epochs_small, epochs_big;
  LiveProfileManager small(epochs_small, base, stack.engine->con_index());
  LiveProfileManager big(epochs_big, base, stack.engine->con_index());

  RecoveryManager::ReplayOptions tiny;
  tiny.chunk_observations = 3;
  auto publishes_small = RecoveryManager::Replay(*recovered, small, tiny);
  STRR_ASSERT_OK(publishes_small.status());
  RecoveryManager::ReplayOptions huge;
  huge.chunk_observations = 1 << 20;
  auto publishes_big = RecoveryManager::Replay(*recovered, big, huge);
  STRR_ASSERT_OK(publishes_big.status());
  EXPECT_GT(*publishes_small, *publishes_big);

  SnapshotRef a = small.Acquire();
  SnapshotRef b = big.Acquire();
  for (uint64_t seq = 1; seq <= kBatches; ++seq) {
    for (const SpeedObservation& obs :
         crash_stream::GenBatch(seq, num_segments)) {
      EXPECT_EQ(a.profile().MinSpeed(obs.segment, obs.time_of_day_sec),
                b.profile().MinSpeed(obs.segment, obs.time_of_day_sec));
      EXPECT_EQ(a.profile().MaxSpeed(obs.segment, obs.time_of_day_sec),
                b.profile().MaxSpeed(obs.segment, obs.time_of_day_sec));
    }
  }
}

// --- LRU block cache ---------------------------------------------------------

/// Writes `num_pages` pages whose first byte identifies the page.
std::unique_ptr<FileManager> MakePageFile(const std::string& path,
                                          uint64_t num_pages) {
  auto file = FileManager::Create(path, 4096);
  EXPECT_TRUE(file.ok());
  for (uint64_t i = 0; i < num_pages; ++i) {
    auto id = (*file)->AllocatePage();
    EXPECT_TRUE(id.ok());
    Page page(4096);
    char tag = static_cast<char>('A' + (i % 26));
    page.Write(0, &tag, 1);
    EXPECT_TRUE((*file)->WritePage(*id, page).ok());
  }
  return std::move(*file);
}

TEST(LruBlockCacheTest, EvictionKeepsCapacityAndServesCorrectBytes) {
  std::string dir = FreshDir("lru_evict");
  auto file = MakePageFile(dir + "/pages.dat", 32);
  BufferPoolOptions opt;
  opt.capacity_pages = 4;
  BufferPool pool(file.get(), opt);

  // Every page read returns its own bytes whether cached or evicted and
  // refetched.
  for (int round = 0; round < 3; ++round) {
    for (PageId id = 0; id < 32; ++id) {
      char byte = 0;
      STRR_ASSERT_OK(pool.ReadInto(id, 0, &byte, 1));
      EXPECT_EQ(byte, static_cast<char>('A' + (id % 26)))
          << "round=" << round << " page=" << id;
      EXPECT_LE(pool.CachedPages(), 4u);
    }
  }
  StorageStats stats = pool.stats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_LE(pool.CachedPages(), pool.capacity());
}

TEST(LruBlockCacheTest, PerRoleMetricSeriesAccounting) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& role_hits = registry.GetCounter(
      "strr_bufferpool_hits_total", {{"role", "ckpt_test_role"}});
  obs::Counter& role_misses = registry.GetCounter(
      "strr_bufferpool_misses_total", {{"role", "ckpt_test_role"}});
  uint64_t hits0 = role_hits.Value();
  uint64_t misses0 = role_misses.Value();

  std::string dir = FreshDir("lru_role");
  auto file = MakePageFile(dir + "/pages.dat", 8);
  BufferPoolOptions opt;
  opt.capacity_pages = 4;
  opt.role = "ckpt_test_role";
  BufferPool pool(file.get(), opt);

  registry.set_enabled(true);
  for (int round = 0; round < 2; ++round) {
    for (PageId id = 0; id < 4; ++id) {
      char byte = 0;
      STRR_ASSERT_OK(pool.ReadInto(id, 0, &byte, 1));
    }
  }
  registry.set_enabled(false);

  EXPECT_EQ(role_misses.Value() - misses0, 4u);
  EXPECT_EQ(role_hits.Value() - hits0, 4u);
}

}  // namespace
}  // namespace strr
