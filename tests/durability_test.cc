// Live-tier durability tests: journal round trips through restart, the
// memtable flush / WAL rotation lifecycle, torn-tail recovery, table
// corruption detection, engine-level recovery bit-identity against a live
// oracle, and (via the crash harness) SIGKILL mid-ingest recovery.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/reachability_engine.h"
#include "live/observation_journal.h"
#include "live/recovery_manager.h"
#include "storage/bloom_filter.h"
#include "storage/fs_util.h"
#include "storage/obs_table.h"
#include "storage/wal/log_writer.h"
#include "tests/test_util.h"
#include "tools/crash_stream.h"
#include "util/serialize.h"

namespace strr {
namespace {

namespace fs = std::filesystem;
using testing_util::GetSharedStack;
using testing_util::MakeTempDir;

constexpr uint32_t kStreamSegments = 100;

// MakeTempDir names repeat across process runs (unseeded rand()), and
// journal recovery is exactly the machinery that notices leftover state —
// start every durability dir empty.
std::string FreshDir(const std::string& tag) {
  std::string dir = MakeTempDir(tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ObservationBatch StreamBatch(uint64_t seq) {
  return ObservationBatch{seq, crash_stream::GenBatch(seq, kStreamSegments)};
}

void ExpectBitIdentical(const ObservationBatch& got, uint64_t seq) {
  std::vector<SpeedObservation> want =
      crash_stream::GenBatch(seq, kStreamSegments);
  ASSERT_EQ(got.seq, seq);
  ASSERT_EQ(got.observations.size(), want.size()) << "seq=" << seq;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got.observations[k].segment, want[k].segment);
    EXPECT_EQ(got.observations[k].time_of_day_sec, want[k].time_of_day_sec);
    // Raw double bits must survive the WAL + table round trip.
    EXPECT_EQ(got.observations[k].speed_mps, want[k].speed_mps);
  }
}

std::vector<ObservationBatch> MustCollect(const RecoveredLog& recovered) {
  auto batches = RecoveryManager::CollectBatches(recovered);
  EXPECT_TRUE(batches.ok()) << batches.status().ToString();
  return batches.ok() ? *std::move(batches) : std::vector<ObservationBatch>{};
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

TEST(ObservationJournalTest, RoundTripThroughRestart) {
  std::string dir = FreshDir("dur_journal");
  ObservationJournalOptions jopt;
  jopt.dir = dir;
  {
    auto recovered = RecoveryManager::Recover(dir);
    STRR_ASSERT_OK(recovered.status());
    EXPECT_EQ(recovered->last_seq, 0u);
    auto journal = ObservationJournal::Open(jopt, *recovered);
    STRR_ASSERT_OK(journal.status());
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      auto acked = (*journal)->AppendBatch(StreamBatch(seq).observations);
      STRR_ASSERT_OK(acked.status());
      EXPECT_EQ(*acked, seq);
    }
    EXPECT_EQ((*journal)->last_seq(), 20u);
  }  // clean shutdown seals the memtable

  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  ASSERT_EQ(recovered->last_seq, 20u);
  std::vector<ObservationBatch> batches = MustCollect(*recovered);
  ASSERT_EQ(batches.size(), 20u);
  for (uint64_t seq = 1; seq <= 20; ++seq) {
    ExpectBitIdentical(batches[seq - 1], seq);
  }

  // Restart continues the sequence where the ack stream left off.
  auto journal = ObservationJournal::Open(jopt, *recovered);
  STRR_ASSERT_OK(journal.status());
  auto acked = (*journal)->AppendBatch(StreamBatch(21).observations);
  STRR_ASSERT_OK(acked.status());
  EXPECT_EQ(*acked, 21u);
}

TEST(ObservationJournalTest, MemtableFlushSealsTablesAndRotatesWal) {
  std::string dir = FreshDir("dur_flush");
  ObservationJournalOptions jopt;
  jopt.dir = dir;
  jopt.memtable_flush_bytes = 512;  // a handful of batches per table
  {
    auto recovered = RecoveryManager::Recover(dir);
    STRR_ASSERT_OK(recovered.status());
    auto journal = ObservationJournal::Open(jopt, *recovered);
    STRR_ASSERT_OK(journal.status());
    for (uint64_t seq = 1; seq <= 50; ++seq) {
      STRR_ASSERT_OK(
          (*journal)->AppendBatch(StreamBatch(seq).observations).status());
    }
    auto stats = (*journal)->stats();
    EXPECT_GE(stats.tables_flushed, 3u);
    EXPECT_GT(stats.wal_syncs, 0u);
    // Rotation deletes fully-covered logs: only the active one remains.
    EXPECT_EQ(CountFiles(dir, ".log"), 1u);
    EXPECT_GE(CountFiles(dir, ".tbl"), 3u);
  }
  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  ASSERT_EQ(recovered->last_seq, 50u);
  std::vector<ObservationBatch> batches = MustCollect(*recovered);
  ASSERT_EQ(batches.size(), 50u);
  for (uint64_t seq = 1; seq <= 50; ++seq) {
    ExpectBitIdentical(batches[seq - 1], seq);
  }
}

// Writes batches 1..n into a bare WAL file (no journal, so nothing seals
// on destruction) and returns the raw log bytes.
std::string BuildBareWal(const std::string& path, uint64_t n) {
  auto file = AppendOnlyFile::Create(path);
  EXPECT_TRUE(file.ok());
  wal::LogWriter writer(file->get());
  for (uint64_t seq = 1; seq <= n; ++seq) {
    BinaryWriter w;
    EncodeObservationBatch(w, StreamBatch(seq));
    EXPECT_TRUE(writer.AddRecord(w.data()).ok());
  }
  EXPECT_TRUE((*file)->Close().ok());
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

TEST(RecoveryManagerTest, WalTruncationRecoversAckedPrefix) {
  std::string dir = FreshDir("dur_trunc");
  std::string wal_path = dir + "/wal_1.log";
  std::string contents = BuildBareWal(wal_path, 6);

  for (size_t cut = 0; cut < contents.size(); cut += 23) {
    {
      std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
      out.write(contents.data(), static_cast<std::streamsize>(cut));
    }
    auto recovered = RecoveryManager::Recover(dir);
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << " " << recovered.status().ToString();
    ASSERT_LE(recovered->last_seq, 6u) << "cut=" << cut;
    std::vector<ObservationBatch> batches = MustCollect(*recovered);
    ASSERT_EQ(batches.size(), recovered->last_seq) << "cut=" << cut;
    for (uint64_t seq = 1; seq <= recovered->last_seq; ++seq) {
      ExpectBitIdentical(batches[seq - 1], seq);
    }
  }
}

TEST(RecoveryManagerTest, WalByteFlipIsCorruption) {
  std::string dir = FreshDir("dur_walflip");
  std::string wal_path = dir + "/wal_1.log";
  std::string contents = BuildBareWal(wal_path, 4);
  std::string mutated = contents;
  mutated[contents.size() / 3] ^= 0x10;
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  auto recovered = RecoveryManager::Recover(dir);
  if (recovered.ok()) {
    // A flip in the final record's length field can present as a torn
    // tail; the acked prefix must still be intact then.
    EXPECT_TRUE(recovered->wal_tail_torn);
    EXPECT_LT(recovered->last_seq, 4u);
  } else {
    EXPECT_TRUE(recovered.status().IsCorruption())
        << recovered.status().ToString();
  }
}

TEST(RecoveryManagerTest, TableWalOverlapDeduplicatesBySeq) {
  // The crash window between table seal and old-WAL delete leaves both
  // holding the same batches; recovery must merge them exactly once.
  std::string dir = FreshDir("dur_overlap");
  ObservationTableBuilder table;
  for (uint64_t seq = 1; seq <= 3; ++seq) table.AddBatch(StreamBatch(seq));
  STRR_ASSERT_OK(table.Finish(dir + "/obs_1.tbl"));
  {
    auto file = AppendOnlyFile::Create(dir + "/wal_2.log");
    ASSERT_TRUE(file.ok());
    wal::LogWriter writer(file->get());
    for (uint64_t seq = 2; seq <= 5; ++seq) {
      BinaryWriter w;
      EncodeObservationBatch(w, StreamBatch(seq));
      STRR_ASSERT_OK(writer.AddRecord(w.data()));
    }
    STRR_ASSERT_OK((*file)->Close());
  }
  auto recovered = RecoveryManager::Recover(dir);
  STRR_ASSERT_OK(recovered.status());
  EXPECT_EQ(recovered->last_seq, 5u);
  EXPECT_EQ(recovered->last_table_seq, 3u);
  std::vector<ObservationBatch> batches = MustCollect(*recovered);
  ASSERT_EQ(batches.size(), 5u);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ExpectBitIdentical(batches[seq - 1], seq);
  }
}

TEST(RecoveryManagerTest, SequenceGapIsCorruption) {
  std::string dir = FreshDir("dur_gap");
  ObservationTableBuilder table;
  table.AddBatch(StreamBatch(1));
  table.AddBatch(StreamBatch(2));
  STRR_ASSERT_OK(table.Finish(dir + "/obs_1.tbl"));
  {
    auto file = AppendOnlyFile::Create(dir + "/wal_2.log");
    ASSERT_TRUE(file.ok());
    wal::LogWriter writer(file->get());
    BinaryWriter w;
    EncodeObservationBatch(w, StreamBatch(5));  // 3 and 4 are missing
    STRR_ASSERT_OK(writer.AddRecord(w.data()));
    STRR_ASSERT_OK((*file)->Close());
  }
  auto recovered = RecoveryManager::Recover(dir);
  ASSERT_FALSE(recovered.ok());
  EXPECT_TRUE(recovered.status().IsCorruption())
      << recovered.status().ToString();
}

TEST(ObservationTableTest, BloomFilterHasNoFalseNegatives) {
  ObservationTableBuilder builder;
  ObservationBatch batch;
  batch.seq = 1;
  for (SegmentId segment : {2u, 40u, 77u}) {
    batch.observations.push_back({segment, 3600, 10.0});
  }
  builder.AddBatch(batch);
  std::string dir = FreshDir("dur_bloom");
  STRR_ASSERT_OK(builder.Finish(dir + "/obs_1.tbl"));
  auto table = ObservationTable::Open(dir + "/obs_1.tbl");
  STRR_ASSERT_OK(table.status());
  EXPECT_TRUE(table->MayContainSegment(2));
  EXPECT_TRUE(table->MayContainSegment(40));
  EXPECT_TRUE(table->MayContainSegment(77));
  // Probabilistic, but with 10 bits/key almost every absent id says no.
  size_t negatives = 0;
  for (SegmentId segment = 1000; segment < 1500; ++segment) {
    if (!table->MayContainSegment(segment)) ++negatives;
  }
  EXPECT_GE(negatives, 400u);
}

TEST(ObservationTableTest, MutationSweepIsAlwaysTypedCorruption) {
  ObservationTableBuilder builder;
  for (uint64_t seq = 1; seq <= 5; ++seq) builder.AddBatch(StreamBatch(seq));
  std::string dir = FreshDir("dur_tblflip");
  std::string path = dir + "/obs_1.tbl";
  STRR_ASSERT_OK(builder.Finish(path));
  auto original = ReadFileToString(path);
  STRR_ASSERT_OK(original.status());

  size_t stride = std::max<size_t>(1, original->size() / 53);
  for (size_t pos = 0; pos < original->size(); pos += stride) {
    std::string mutated = *original;
    mutated[pos] ^= 0x04;
    auto parsed = ObservationTable::Parse(mutated, "mutated");
    ASSERT_FALSE(parsed.ok()) << "pos=" << pos;
    EXPECT_TRUE(parsed.status().IsCorruption())
        << "pos=" << pos << " " << parsed.status().ToString();
  }
  for (size_t cut : {size_t{0}, size_t{5}, original->size() / 2,
                     original->size() - 1}) {
    auto parsed = ObservationTable::Parse(original->substr(0, cut), "cut");
    ASSERT_FALSE(parsed.ok()) << "cut=" << cut;
    EXPECT_TRUE(parsed.status().IsCorruption()) << "cut=" << cut;
  }
}

TEST(EngineDurabilityTest, DurabilityRequiresLiveIngestion) {
  auto& stack = GetSharedStack();
  // Each knob documented as requiring another is rejected at Build, never
  // silently ignored.
  struct Case {
    const char* knob;
    bool ingestion;
    bool durability;
    uint64_t checkpoint_interval_batches;
    bool compaction;
  };
  const Case cases[] = {
      {"live_durability", false, true, 0, false},
      {"live_checkpoint_interval_batches", true, false, 8, false},
      {"live_compaction", true, false, 0, true},
  };
  for (const Case& c : cases) {
    EngineOptions opt;
    opt.work_dir = FreshDir("dur_req");
    opt.live_ingestion = c.ingestion;
    opt.live_durability = c.durability;
    opt.live_checkpoint_interval_batches = c.checkpoint_interval_batches;
    opt.live_compaction = c.compaction;
    auto engine = ReachabilityEngine::Build(stack.dataset.network,
                                            *stack.dataset.store, opt);
    ASSERT_FALSE(engine.ok()) << c.knob;
    EXPECT_TRUE(engine.status().IsInvalidArgument()) << c.knob;
    EXPECT_NE(engine.status().ToString().find(c.knob), std::string::npos)
        << engine.status().ToString();
  }
}

TEST(EngineDurabilityTest, RestartServesSameRegionsAsLiveOracle) {
  auto& stack = GetSharedStack();
  const uint32_t num_segments =
      static_cast<uint32_t>(stack.dataset.network.NumSegments());
  std::string jdir = FreshDir("dur_engine_wal");

  std::vector<SpeedObservation> stream;
  for (uint64_t seq = 1; seq <= 40; ++seq) {
    std::vector<SpeedObservation> batch =
        crash_stream::GenBatch(seq, num_segments);
    stream.insert(stream.end(), batch.begin(), batch.end());
  }

  auto feed = [&](ReachabilityEngine& engine) {
    for (const SpeedObservation& obs : stream) {
      ASSERT_TRUE(engine.OfferObservation(obs));
    }
    engine.ingestor()->Flush();
  };
  std::vector<SQuery> queries;
  for (int64_t tod : {8 * 3600, 12 * 3600 + 1800, 19 * 3600}) {
    queries.push_back(SQuery{stack.dataset.center, tod, 600, 0.2});
  }
  auto regions = [&](ReachabilityEngine& engine) {
    std::vector<std::vector<SegmentId>> out;
    for (const SQuery& q : queries) {
      auto result = engine.SQueryIndexed(q);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      out.push_back(result.ok() ? result->segments
                                : std::vector<SegmentId>{});
    }
    return out;
  };

  // Durable engine: ingest the stream, remember its answers, shut down.
  std::vector<std::vector<SegmentId>> before;
  {
    EngineOptions opt;
    opt.work_dir = FreshDir("dur_engine_a");
    opt.live_ingestion = true;
    opt.live_durability = true;
    opt.live_durability_dir = jdir;
    opt.live_memtable_flush_bytes = 2048;  // several table seals
    auto engine = ReachabilityEngine::Build(stack.dataset.network,
                                            *stack.dataset.store, opt);
    STRR_ASSERT_OK(engine.status());
    feed(**engine);
    auto stats = (*engine)->ingestor()->stats();
    EXPECT_EQ(stats.wal_append_failures, 0u);
    EXPECT_GT(stats.wal_batches, 0u);
    before = regions(**engine);
  }

  // Restarted engine: recovery must replay to the same serving state.
  EngineOptions opt_restart;
  opt_restart.work_dir = FreshDir("dur_engine_a2");
  opt_restart.live_ingestion = true;
  opt_restart.live_durability = true;
  opt_restart.live_durability_dir = jdir;
  auto restarted = ReachabilityEngine::Build(stack.dataset.network,
                                             *stack.dataset.store,
                                             opt_restart);
  STRR_ASSERT_OK(restarted.status());
  EXPECT_GT((*restarted)->live_recovery().recovered_batches, 0u);
  EXPECT_EQ((*restarted)->live_recovery().replay_publishes > 0, true);

  // Oracle: a fresh live engine fed the identical stream, never restarted.
  EngineOptions opt_oracle;
  opt_oracle.work_dir = FreshDir("dur_engine_b");
  opt_oracle.live_ingestion = true;
  auto oracle = ReachabilityEngine::Build(stack.dataset.network,
                                          *stack.dataset.store, opt_oracle);
  STRR_ASSERT_OK(oracle.status());
  feed(**oracle);

  std::vector<std::vector<SegmentId>> after = regions(**restarted);
  std::vector<std::vector<SegmentId>> want = regions(**oracle);
  EXPECT_EQ(after, before);
  EXPECT_EQ(after, want);
}

#ifdef STRR_CRASH_HARNESS_PATH
struct CrashDrillConfig {
  const char* name;
  const char* checkpoint_interval;  // "0" disables
  const char* compaction;           // "0" or "1"
  int kill_delay_ms;
};

TEST(DurabilityCrashTest, SigkillMidIngestRecoversExactly) {
  // End-to-end crash drill: SIGKILL the harness writer mid-stream with the
  // storage-engine knobs off and on (so the kill can land inside the
  // checkpoint-write, WAL-truncation, and compaction-swap windows), then
  // let the checker assert recovery reproduces exactly the acked
  // observation stream (and the same served regions as an oracle fed that
  // stream live).
  for (const CrashDrillConfig& config : {
           CrashDrillConfig{"plain", "0", "0", 150},
           CrashDrillConfig{"plain", "0", "0", 700},
           CrashDrillConfig{"checkpoint", "15", "0", 400},
           CrashDrillConfig{"checkpoint_compaction", "15", "1", 600},
       }) {
    SCOPED_TRACE(config.name);
    std::string dir = FreshDir("dur_kill");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::execl(STRR_CRASH_HARNESS_PATH, "crash_harness", "write", dir.c_str(),
              "1000000", config.checkpoint_interval, config.compaction,
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    const int kill_delay_ms = config.kill_delay_ms;
    bool ready = false;
    for (int i = 0; i < 2400; ++i) {  // dataset build takes a while
      if (fs::exists(dir + "/READY")) {
        ready = true;
        break;
      }
      ::usleep(50 * 1000);
    }
    ASSERT_TRUE(ready) << "writer never signalled READY";
    ::usleep(kill_delay_ms * 1000);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));

    std::string cmd =
        std::string(STRR_CRASH_HARNESS_PATH) + " check " + dir;
    int rc = std::system(cmd.c_str());
    ASSERT_TRUE(rc != -1);
    EXPECT_EQ(WEXITSTATUS(rc), 0) << "delay=" << kill_delay_ms << "ms";
  }
}
#endif  // STRR_CRASH_HARNESS_PATH

}  // namespace
}  // namespace strr
