// Tests for the storage layer: FileManager, BufferPool, PostingStore.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/posting_store.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace strr {
namespace {

using testing_util::MakeTempDir;

std::string TempFile(const std::string& tag) {
  return MakeTempDir(tag) + "/file.bin";
}

/// Key space of the PostingStore tests: segments 0..7, slots 0..4095.
constexpr PostingGrid kTestGrid{8, 4096};

// --- FileManager -------------------------------------------------------------

TEST(FileManagerTest, CreateAllocateWriteRead) {
  std::string path = TempFile("fm1");
  auto fm = FileManager::Create(path, 256);
  ASSERT_TRUE(fm.ok());
  auto p0 = (*fm)->AllocatePage();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  Page page(256);
  page.Write(0, "hello", 5);
  ASSERT_TRUE((*fm)->WritePage(*p0, page).ok());
  Page out(256);
  ASSERT_TRUE((*fm)->ReadPage(*p0, &out).ok());
  EXPECT_EQ(std::string(out.data(), 5), "hello");
}

TEST(FileManagerTest, PagesArePersistent) {
  std::string path = TempFile("fm2");
  {
    auto fm = FileManager::Create(path, 128);
    ASSERT_TRUE(fm.ok());
    ASSERT_TRUE((*fm)->AllocatePage().ok());
    ASSERT_TRUE((*fm)->AllocatePage().ok());
    Page page(128);
    page.Write(10, "xyz", 3);
    ASSERT_TRUE((*fm)->WritePage(1, page).ok());
  }
  auto fm = FileManager::Open(path, 128);
  ASSERT_TRUE(fm.ok());
  EXPECT_EQ((*fm)->NumPages(), 2u);
  Page out(128);
  ASSERT_TRUE((*fm)->ReadPage(1, &out).ok());
  EXPECT_EQ(std::string(out.data() + 10, 3), "xyz");
}

TEST(FileManagerTest, ReadBeyondEofFails) {
  auto fm = FileManager::Create(TempFile("fm3"), 128);
  ASSERT_TRUE(fm.ok());
  Page page(128);
  EXPECT_TRUE((*fm)->ReadPage(0, &page).IsOutOfRange());
}

TEST(FileManagerTest, WriteBeyondEofFails) {
  auto fm = FileManager::Create(TempFile("fm4"), 128);
  ASSERT_TRUE(fm.ok());
  Page page(128);
  EXPECT_TRUE((*fm)->WritePage(3, page).IsOutOfRange());
}

TEST(FileManagerTest, PageSizeMismatchRejected) {
  auto fm = FileManager::Create(TempFile("fm5"), 128);
  ASSERT_TRUE(fm.ok());
  ASSERT_TRUE((*fm)->AllocatePage().ok());
  Page wrong(256);
  EXPECT_TRUE((*fm)->ReadPage(0, &wrong).IsInvalidArgument());
  EXPECT_TRUE((*fm)->WritePage(0, wrong).IsInvalidArgument());
}

TEST(FileManagerTest, OpenMissingFileFails) {
  EXPECT_TRUE(
      FileManager::Open("/nonexistent_dir_xyz/f.bin", 128)
          .status()
          .IsIoError());
}

TEST(FileManagerTest, OpenMisalignedFileFails) {
  std::string path = TempFile("fm6");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a page multiple", f);
    std::fclose(f);
  }
  EXPECT_TRUE(FileManager::Open(path, 128).status().IsCorruption());
}

TEST(FileManagerTest, TinyPageSizeRejected) {
  EXPECT_TRUE(
      FileManager::Create(TempFile("fm7"), 16).status().IsInvalidArgument());
}

TEST(FileManagerTest, StatsCountTransfers) {
  auto fm = FileManager::Create(TempFile("fm8"), 128);
  ASSERT_TRUE(fm.ok());
  ASSERT_TRUE((*fm)->AllocatePage().ok());  // counts as a write
  Page page(128);
  ASSERT_TRUE((*fm)->WritePage(0, page).ok());
  ASSERT_TRUE((*fm)->ReadPage(0, &page).ok());
  ASSERT_TRUE((*fm)->ReadPage(0, &page).ok());
  EXPECT_EQ((*fm)->stats().disk_page_writes, 2u);
  EXPECT_EQ((*fm)->stats().disk_page_reads, 2u);
  (*fm)->ResetStats();
  EXPECT_EQ((*fm)->stats().disk_page_reads, 0u);
}

// --- BufferPool --------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fm = FileManager::Create(TempFile("bp"), 128);
    ASSERT_TRUE(fm.ok());
    fm_ = std::move(*fm);
    for (int i = 0; i < 8; ++i) {
      auto id = fm_->AllocatePage();
      ASSERT_TRUE(id.ok());
      Page page(128);
      page.Write(0, &i, sizeof(i));
      ASSERT_TRUE(fm_->WritePage(*id, page).ok());
    }
    fm_->ResetStats();
  }

  int PageTag(const Page* p) {
    int tag;
    p->Read(0, &tag, sizeof(tag));
    return tag;
  }

  std::unique_ptr<FileManager> fm_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  BufferPool pool(fm_.get(), 4);
  auto p = pool.Fetch(2);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(PageTag(*p), 2);
  EXPECT_EQ(pool.stats().cache_misses, 1u);
  p = pool.Fetch(2);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(pool.stats().cache_hits, 1u);
  EXPECT_EQ(pool.stats().disk_page_reads, 1u);
}

TEST_F(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(fm_.get(), 2);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());
  ASSERT_TRUE(pool.Fetch(0).ok());  // 0 now more recent than 1
  ASSERT_TRUE(pool.Fetch(2).ok());  // evicts 1
  EXPECT_EQ(pool.stats().evictions, 1u);
  pool.ResetStats();
  ASSERT_TRUE(pool.Fetch(0).ok());  // still cached
  EXPECT_EQ(pool.stats().cache_hits, 1u);
  ASSERT_TRUE(pool.Fetch(1).ok());  // was evicted -> miss
  EXPECT_EQ(pool.stats().cache_misses, 1u);
}

TEST_F(BufferPoolTest, CapacityZeroAlwaysMisses) {
  BufferPool pool(fm_.get(), 0);
  for (int round = 0; round < 3; ++round) {
    auto p = pool.Fetch(1);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(PageTag(*p), 1);
  }
  EXPECT_EQ(pool.stats().cache_misses, 3u);
  EXPECT_EQ(pool.stats().cache_hits, 0u);
}

TEST_F(BufferPoolTest, FetchBadPageFails) {
  BufferPool pool(fm_.get(), 4);
  EXPECT_FALSE(pool.Fetch(99).ok());
  // A failed fetch must not leave a poisoned frame behind.
  EXPECT_EQ(pool.CachedPages(), 0u);
}

TEST_F(BufferPoolTest, WriteThroughUpdatesDiskAndCache) {
  BufferPool pool(fm_.get(), 4);
  ASSERT_TRUE(pool.Fetch(3).ok());
  Page page(128);
  int v = 42;
  page.Write(0, &v, sizeof(v));
  ASSERT_TRUE(pool.WriteThrough(3, page).ok());
  auto p = pool.Fetch(3);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(PageTag(*p), 42);  // cache refreshed
  Page direct(128);
  ASSERT_TRUE(fm_->ReadPage(3, &direct).ok());
  EXPECT_EQ(PageTag(&direct), 42);  // disk updated
}

TEST_F(BufferPoolTest, ClearDropsPagesKeepsStats) {
  BufferPool pool(fm_.get(), 4);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());
  EXPECT_EQ(pool.CachedPages(), 2u);
  pool.Clear();
  EXPECT_EQ(pool.CachedPages(), 0u);
  EXPECT_EQ(pool.stats().cache_misses, 2u);
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.stats().cache_misses, 3u);
}

TEST_F(BufferPoolTest, HitRatioUnderWorkingSet) {
  BufferPool pool(fm_.get(), 8);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Fetch(rng.UniformInt(0, 7)).ok());
  }
  // All 8 pages fit: exactly 8 misses.
  EXPECT_EQ(pool.stats().cache_misses, 8u);
  EXPECT_EQ(pool.stats().cache_hits, 192u);
}

TEST_F(BufferPoolTest, ShardCountFollowsCapacity) {
  EXPECT_EQ(BufferPool(fm_.get(), 0).num_shards(), 1u);
  EXPECT_EQ(BufferPool(fm_.get(), 16).num_shards(), 1u);
  EXPECT_EQ(BufferPool(fm_.get(), 511).num_shards(), 1u);
  EXPECT_EQ(BufferPool(fm_.get(), 512).num_shards(), 2u);
  EXPECT_EQ(BufferPool(fm_.get(), 4096).num_shards(), 16u);
  EXPECT_EQ(BufferPool(fm_.get(), 1 << 20).num_shards(),
            BufferPool::kMaxShards);
}

// --- Concurrent read path ----------------------------------------------------

/// The byte a hammer-test page holds at `offset`: distinct per page and
/// per position, so a torn or misdirected copy shows up.
char HammerByte(PageId id, uint32_t offset) {
  return static_cast<char>((id * 131 + offset * 7 + 3) & 0xff);
}

std::unique_ptr<FileManager> MakeHammerFile(const std::string& path,
                                            uint32_t page_size,
                                            uint64_t num_pages) {
  auto fm = FileManager::Create(path, page_size);
  EXPECT_TRUE(fm.ok());
  Page page(page_size);
  for (uint64_t i = 0; i < num_pages; ++i) {
    auto id = (*fm)->AllocatePage();
    EXPECT_TRUE(id.ok());
    for (uint32_t b = 0; b < page_size; ++b) {
      char c = HammerByte(*id, b);
      page.Write(b, &c, 1);
    }
    EXPECT_TRUE((*fm)->WritePage(*id, page).ok());
  }
  return std::move(*fm);
}

TEST(BufferPoolConcurrencyTest, ShardedReadIntoUnderEviction) {
  constexpr uint32_t kPageSize = 128;
  constexpr uint64_t kFilePages = 1500;
  constexpr size_t kCapacity = 2 * BufferPool::kFramesPerShard;
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 3000;
  auto fm = MakeHammerFile(TempFile("hammer"), kPageSize, kFilePages);

  const std::string role = "storage_hammer_lru";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& contended = registry.GetCounter(
      "strr_bufferpool_lock_contended_total", {{"role", role}});
  const uint64_t contended0 = contended.Value();

  BufferPoolOptions opt;
  opt.capacity_pages = kCapacity;
  opt.role = role;
  BufferPool pool(fm.get(), opt);
  ASSERT_GE(pool.num_shards(), 2u);
  ASSERT_LT(pool.capacity(), kFilePages) << "the hammer must evict";

  registry.set_enabled(true);
  std::atomic<uint64_t> bad_bytes{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      char buf[kPageSize];
      for (int i = 0; i < kRequestsPerThread; ++i) {
        // Half the requests go to a hot set that fits, so hits mix with
        // misses and evictions in every shard.
        PageId id = rng.UniformInt(0, 1) == 0
                        ? static_cast<PageId>(rng.UniformInt(0, 199))
                        : static_cast<PageId>(
                              rng.UniformInt(0, kFilePages - 1));
        uint32_t offset =
            static_cast<uint32_t>(rng.UniformInt(0, kPageSize - 1));
        uint32_t n =
            static_cast<uint32_t>(rng.UniformInt(1, kPageSize - offset));
        if (!pool.ReadInto(id, offset, buf, n).ok()) {
          failed.fetch_add(1);
          continue;
        }
        for (uint32_t b = 0; b < n; ++b) {
          if (buf[b] != HammerByte(id, offset + b)) bad_bytes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  registry.set_enabled(false);

  const uint64_t requests = uint64_t{kThreads} * kRequestsPerThread;
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(bad_bytes.load(), 0u);
  StorageStats stats = pool.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, requests);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(pool.CachedPages(), pool.capacity());
  EXPECT_LE(contended.Value() - contended0, requests);

  std::string prom;
  registry.DumpPrometheus(&prom);
  EXPECT_NE(prom.find("strr_bufferpool_lock_contended_total{role=\"" +
                      role + "\"}"),
            std::string::npos);
}

TEST(FileManagerTest, WriteThenReadOnSameInstance) {
  auto fm = FileManager::Create(TempFile("fm_coherent"), 256);
  ASSERT_TRUE(fm.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*fm)->AllocatePage().ok());
  for (int round = 0; round < 3; ++round) {
    for (PageId id = 0; id < 4; ++id) {
      Page page(256);
      std::string tag =
          "round" + std::to_string(round) + "page" + std::to_string(id);
      page.Write(17, tag.data(), static_cast<uint32_t>(tag.size()));
      ASSERT_TRUE((*fm)->WritePage(id, page).ok());
      Page out(256);
      ASSERT_TRUE((*fm)->ReadPage(id, &out).ok());
      EXPECT_EQ(std::memcmp(out.data(), page.data(), 256), 0)
          << "round " << round << " page " << id;
    }
  }
  // A page allocated after those writes reads back zeroed.
  auto fresh = (*fm)->AllocatePage();
  ASSERT_TRUE(fresh.ok());
  Page out(256);
  std::memset(out.data(), 0x5a, 256);
  ASSERT_TRUE((*fm)->ReadPage(*fresh, &out).ok());
  EXPECT_EQ(std::count(out.data(), out.data() + 256, 0), 256);
}

// --- PostingStore ------------------------------------------------------------

TEST(PostingStoreTest, RoundTripSmall) {
  std::string path = TempFile("ps1");
  auto builder = PostingStoreBuilder::Create(path, 256);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add(MakePostingKey(1, 2), "alpha").ok());
  ASSERT_TRUE((*builder)->Add(MakePostingKey(3, 4), "beta").ok());
  ASSERT_TRUE((*builder)->Finish().ok());

  auto store = PostingStore::Open(path, kTestGrid, 16, 256);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->NumEntries(), 2u);
  EXPECT_EQ((*store)->Get(MakePostingKey(1, 2)).value(), "alpha");
  EXPECT_EQ((*store)->Get(MakePostingKey(3, 4)).value(), "beta");
}

TEST(PostingStoreTest, MissingKeyIsNotFound) {
  std::string path = TempFile("ps2");
  auto builder = PostingStoreBuilder::Create(path, 256);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add(7, "x").ok());
  ASSERT_TRUE((*builder)->Finish().ok());
  auto store = PostingStore::Open(path, kTestGrid, 16, 256);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Get(8).status().IsNotFound());
  EXPECT_TRUE((*store)->Contains(7));
  EXPECT_FALSE((*store)->Contains(8));
}

TEST(PostingStoreTest, DuplicateKeyRejected) {
  auto builder = PostingStoreBuilder::Create(TempFile("ps3"), 256);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add(1, "a").ok());
  EXPECT_TRUE((*builder)->Add(1, "b").IsAlreadyExists());
}

TEST(PostingStoreTest, SmallerKeyRejected) {
  auto builder = PostingStoreBuilder::Create(TempFile("ps3b"), 256);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add(MakePostingKey(2, 5), "a").ok());
  EXPECT_TRUE((*builder)->Add(MakePostingKey(1, 5), "b").IsInvalidArgument());
  EXPECT_TRUE((*builder)->Add(MakePostingKey(9, 1), "c").IsInvalidArgument());
  // The rejected keys left nothing behind: the next larger key still fits.
  ASSERT_TRUE((*builder)->Add(MakePostingKey(3, 5), "d").ok());
  EXPECT_EQ((*builder)->NumEntries(), 2u);
}

TEST(PostingStoreTest, SegmentMajorOrderRejected) {
  // Slot-major order is by slot first: a segment's later slot may not come
  // before another segment's earlier one.
  auto builder = PostingStoreBuilder::Create(TempFile("ps3c"), 256);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add(MakePostingKey(0, 1), "a").ok());
  ASSERT_TRUE((*builder)->Add(MakePostingKey(0, 2), "b").ok());
  EXPECT_TRUE((*builder)->Add(MakePostingKey(1, 1), "c").IsInvalidArgument());
  EXPECT_TRUE((*builder)->Add(MakePostingKey(1, 2), "d").ok());
  EXPECT_TRUE((*builder)->Add(MakePostingKey(0, 3), "e").ok());
  EXPECT_EQ((*builder)->NumEntries(), 4u);
}

TEST(PostingStoreTest, BlobsSpanningPages) {
  std::string path = TempFile("ps4");
  auto builder = PostingStoreBuilder::Create(path, 128);
  ASSERT_TRUE(builder.ok());
  std::string big(1000, 'q');
  big[0] = 'A';
  big[999] = 'Z';
  ASSERT_TRUE((*builder)->Add(5, big).ok());
  ASSERT_TRUE((*builder)->Add(6, "tail").ok());
  ASSERT_TRUE((*builder)->Finish().ok());
  auto store = PostingStore::Open(path, kTestGrid, 16, 128);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->Get(5).value(), big);
  EXPECT_EQ((*store)->Get(6).value(), "tail");
}

TEST(PostingStoreTest, EmptyBlobAllowed) {
  const PostingGrid grid{2, 8};
  std::map<PostingKey, std::string> blobs;
  blobs[MakePostingKey(0, 1)] = "ab";
  blobs[MakePostingKey(0, 2)] = "";
  blobs[MakePostingKey(0, 4)] = "cd";
  blobs[MakePostingKey(1, 7)] = "";  // the grid's last cell
  std::string path = TempFile("ps5");
  auto builder = PostingStoreBuilder::Create(path, 256);
  ASSERT_TRUE(builder.ok());
  for (const auto& [key, blob] : blobs) {
    ASSERT_TRUE((*builder)->Add(key, blob).ok());
  }
  ASSERT_TRUE((*builder)->Finish().ok());
  auto store = PostingStore::Open(path, grid, 16, 256);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->NumEntries(), blobs.size());

  // Every cell: empty blobs are found (and read back empty), absent cells
  // are not.
  for (uint32_t seg = 0; seg < grid.num_segments; ++seg) {
    for (uint32_t slot = 0; slot < grid.slots; ++slot) {
      const PostingKey key = MakePostingKey(seg, slot);
      auto it = blobs.find(key);
      const bool present = it != blobs.end();
      EXPECT_EQ((*store)->Contains(key), present) << key;
      std::string out = "stale";
      auto found = (*store)->GetInto(key, &out);
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(*found, present) << key;
      EXPECT_EQ(out, present ? it->second : std::string()) << key;
    }
  }
  // Keys outside the grid are absent too.
  for (PostingKey key : {MakePostingKey(2, 0), MakePostingKey(0, 8)}) {
    EXPECT_FALSE((*store)->Contains(key)) << key;
    EXPECT_TRUE((*store)->Get(key).status().IsNotFound()) << key;
  }
  EXPECT_FALSE((*store)->Contains(~PostingKey{0}));
}

TEST(PostingStoreTest, ManyEntriesRandomized) {
  std::string path = TempFile("ps6");
  auto builder = PostingStoreBuilder::Create(path, 512);
  ASSERT_TRUE(builder.ok());
  Rng rng(21);
  std::vector<std::pair<PostingKey, std::string>> entries;
  for (int i = 0; i < 500; ++i) {
    std::string blob(rng.UniformInt(0, 300), 0);
    for (auto& c : blob) c = static_cast<char>(rng.UniformInt(0, 255));
    entries.emplace_back(static_cast<PostingKey>(i * 7 + 1), blob);
    ASSERT_TRUE((*builder)->Add(entries.back().first, blob).ok());
  }
  ASSERT_TRUE((*builder)->Finish().ok());
  auto store = PostingStore::Open(path, kTestGrid, 64, 512);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->NumEntries(), 500u);
  for (const auto& [key, blob] : entries) {
    EXPECT_EQ((*store)->Get(key).value(), blob);
  }
}

TEST(PostingStoreTest, AddAfterFinishFails) {
  auto builder = PostingStoreBuilder::Create(TempFile("ps7"), 256);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Finish().ok());
  EXPECT_TRUE((*builder)->Add(1, "x").IsFailedPrecondition());
  EXPECT_TRUE((*builder)->Finish().IsFailedPrecondition());
}

TEST(PostingStoreTest, CorruptMagicRejected) {
  std::string path = TempFile("ps8");
  {
    auto builder = PostingStoreBuilder::Create(path, 256);
    ASSERT_TRUE(builder.ok());
    ASSERT_TRUE((*builder)->Add(1, "x").ok());
    ASSERT_TRUE((*builder)->Finish().ok());
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage!", f);
    std::fclose(f);
  }
  EXPECT_TRUE(
      PostingStore::Open(path, kTestGrid, 16, 256).status().IsCorruption());
}

TEST(PostingStoreTest, WrongPageSizeRejected) {
  std::string path = TempFile("ps9");
  auto builder = PostingStoreBuilder::Create(path, 256);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Finish().ok());
  // 512 does not divide the file evenly or match the header.
  auto opened = PostingStore::Open(path, kTestGrid, 16, 512);
  EXPECT_FALSE(opened.ok());
}

TEST(PostingStoreTest, StatsCountIo) {
  std::string path = TempFile("ps10");
  auto builder = PostingStoreBuilder::Create(path, 256);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add(1, std::string(600, 'a')).ok());
  ASSERT_TRUE((*builder)->Finish().ok());
  auto store = PostingStore::Open(path, kTestGrid, 16, 256);
  ASSERT_TRUE(store.ok());
  (*store)->ResetStats();
  ASSERT_TRUE((*store)->Get(1).ok());
  auto stats = (*store)->stats();
  EXPECT_EQ(stats.cache_misses, 3u);  // 600 bytes over 256B pages
  ASSERT_TRUE((*store)->Get(1).ok());
  stats = (*store)->stats();
  EXPECT_EQ(stats.cache_hits, 3u);
  (*store)->DropCache();
  ASSERT_TRUE((*store)->Get(1).ok());
  stats = (*store)->stats();
  EXPECT_EQ(stats.cache_misses, 6u);
}

/// A slot-major store with 64-byte pages over grid {3, 8}. Data bytes:
///   slot 1: seg 0 [0, 30), seg 1 empty at 30, seg 2 [30, 80) straddles
///           pages 0-1;
///   slot 2: seg 0 [80, 100) on page 1;
///   slot 3: seg 1 [100, 140) straddles pages 1-2;
///   slot 7: seg 2 [140, 150), the grid's last cell, ending at the
///           directory's sentinel offset.
class PostingWindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cells_ = {{MakePostingKey(0, 1), std::string(30, 'a')},
              {MakePostingKey(1, 1), ""},
              {MakePostingKey(2, 1), std::string(50, 'b')},
              {MakePostingKey(0, 2), std::string(20, 'c')},
              {MakePostingKey(1, 3), std::string(40, 'd')},
              {MakePostingKey(2, 7), std::string(10, 'e')}};
    const std::string path = TempFile("ps_window");
    auto builder = PostingStoreBuilder::Create(path, 64);
    ASSERT_TRUE(builder.ok());
    for (const auto& [key, blob] : cells_) {
      ASSERT_TRUE((*builder)->Add(key, blob).ok());
    }
    ASSERT_TRUE((*builder)->Finish().ok());
    auto opened = PostingStore::Open(path, PostingGrid{3, 8}, 16, 64);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store_ = std::move(*opened);
  }

  /// Reads (segment, slot) through `window`; "<absent>" when not found.
  std::string Read(PostingStore::Window& window, uint32_t segment,
                   uint32_t slot) {
    std::string_view blob = "stale";
    auto found = window.Read(segment, slot, &blob);
    EXPECT_TRUE(found.ok()) << found.status().ToString();
    if (!found.ok() || !*found) return "<absent>";
    return std::string(blob);
  }

  /// Page requests since the last DropAndReset.
  uint64_t Requests() const { return store_->stats().TotalRequests(); }

  void DropAndReset() {
    store_->DropCache();
    store_->ResetStats();
  }

  std::vector<std::pair<PostingKey, std::string>> cells_;
  std::unique_ptr<PostingStore> store_;
};

TEST_F(PostingWindowTest, OneRequestPerDistinctPageSharedAcrossSegments) {
  DropAndReset();
  PostingStore::Window window(*store_, 0, 7);
  // Every cell once, in slot order: pages 0, 1 and 2, each requested once.
  for (const auto& [key, blob] : cells_) {
    EXPECT_EQ(Read(window, key >> 32, key & 0xffffffffu), blob) << key;
  }
  EXPECT_EQ(Requests(), 3u);
  EXPECT_EQ(store_->stats().cache_hits, 0u);
  EXPECT_EQ(window.pages_buffered(), 3u);
  // Again, in reverse: every page is already in the window.
  for (auto it = cells_.rbegin(); it != cells_.rend(); ++it) {
    EXPECT_EQ(Read(window, it->first >> 32, it->first & 0xffffffffu),
              it->second);
  }
  EXPECT_EQ(Requests(), 3u);
  // A second window is a second query: it requests its pages again.
  PostingStore::Window other(*store_, 2, 2);
  EXPECT_EQ(Read(other, 0, 2), cells_[3].second);
  EXPECT_EQ(Requests(), 4u);
}

TEST_F(PostingWindowTest, StraddlingBlobsAreAssembled) {
  DropAndReset();
  PostingStore::Window window(*store_, 1, 3);
  EXPECT_EQ(Read(window, 2, 1), cells_[2].second);  // pages 0-1
  EXPECT_EQ(Requests(), 2u);
  EXPECT_EQ(Read(window, 1, 3), cells_[4].second);  // pages 1-2
  EXPECT_EQ(Requests(), 3u);
  // The one-page blobs around them read back intact from the same frames.
  EXPECT_EQ(Read(window, 0, 1), cells_[0].second);
  EXPECT_EQ(Read(window, 0, 2), cells_[3].second);
  EXPECT_EQ(Requests(), 3u);
}

TEST_F(PostingWindowTest, EarlyStopLeavesLaterPagesUnrequested) {
  DropAndReset();
  PostingStore::Window window(*store_, 0, 7);
  EXPECT_EQ(Read(window, 0, 1), cells_[0].second);
  EXPECT_EQ(Requests(), 1u);  // page 0 only; slots 2-7 are never asked for
  EXPECT_EQ(Read(window, 0, 2), cells_[3].second);
  EXPECT_EQ(Requests(), 2u);
}

TEST_F(PostingWindowTest, AbsentAndEmptyCellsCostNoIo) {
  DropAndReset();
  PostingStore::Window window(*store_, 0, 7);
  EXPECT_EQ(Read(window, 1, 1), "");  // present and empty
  EXPECT_EQ(Read(window, 0, 0), "<absent>");
  EXPECT_EQ(Read(window, 0, 3), "<absent>");
  EXPECT_EQ(Read(window, 3, 1), "<absent>");  // segment outside the grid
  EXPECT_EQ(Requests(), 0u);
  // Cells outside the window's slots are absent to it, as are all cells of
  // an empty or out-of-grid window.
  PostingStore::Window band(*store_, 2, 2);
  EXPECT_EQ(Read(band, 0, 1), "<absent>");
  EXPECT_EQ(Read(band, 1, 3), "<absent>");
  PostingStore::Window reversed(*store_, 3, 2);
  EXPECT_EQ(reversed.first_slot(), reversed.end_slot());
  EXPECT_EQ(Read(reversed, 0, 2), "<absent>");
  PostingStore::Window past(*store_, 8, 9);
  EXPECT_EQ(Read(past, 2, 7), "<absent>");
  EXPECT_EQ(Requests(), 0u);
  EXPECT_EQ(window.pages_buffered(), 0u);
}

TEST_F(PostingWindowTest, GridsLastCellAtTheSentinelOffset) {
  DropAndReset();
  // A last slot past the grid is clamped to it.
  PostingStore::Window window(*store_, 7, 100);
  EXPECT_EQ(window.end_slot(), 8u);
  EXPECT_EQ(Read(window, 2, 7), cells_[5].second);
  EXPECT_EQ(Requests(), 1u);
  std::string out;
  auto found = store_->GetInto(MakePostingKey(2, 7), &out);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(out, cells_[5].second);
}

TEST(PostingStoreTest, WindowPastItsCapReadsUncachedWithTheSameBytes) {
  // 64-byte pages and 40-byte blobs: 4 segments × 400 slots span 1 000
  // pages, about twice the cap.
  const PostingGrid grid{4, 400};
  const std::string path = TempFile("ps_cap");
  auto builder = PostingStoreBuilder::Create(path, 64);
  ASSERT_TRUE(builder.ok());
  Rng rng(7);
  std::vector<std::pair<PostingKey, std::string>> cells;
  for (uint32_t slot = 0; slot < grid.slots; ++slot) {
    for (uint32_t seg = 0; seg < grid.num_segments; ++seg) {
      std::string blob(40, 0);
      for (auto& c : blob) c = static_cast<char>(rng.UniformInt(0, 255));
      cells.emplace_back(MakePostingKey(seg, slot), blob);
      ASSERT_TRUE((*builder)->Add(cells.back().first, blob).ok());
    }
  }
  ASSERT_GT((*builder)->DataBytes() / 64, PostingStore::Window::kMaxPages);
  ASSERT_TRUE((*builder)->Finish().ok());
  auto opened = PostingStore::Open(path, grid, 64, 64);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  PostingStore& store = **opened;

  // Two passes over every cell through one window: each blob equals the
  // pool's, and the buffer stops at the cap.
  store.ResetStats();
  PostingStore::Window window(store, 0, grid.slots - 1);
  std::string direct;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [key, blob] : cells) {
      std::string_view got;
      auto found = window.Read(key >> 32, key & 0xffffffffu, &got);
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      ASSERT_TRUE(*found) << key;
      ASSERT_EQ(got, blob) << key;
      ASSERT_LE(window.pages_buffered(), PostingStore::Window::kMaxPages);
      ASSERT_TRUE(store.GetInto(key, &direct).ok());
      ASSERT_EQ(direct, blob) << key;
    }
  }
  EXPECT_EQ(window.pages_buffered(), PostingStore::Window::kMaxPages);
}

/// Builds a three-entry store at `path` (page size 256) and returns the
/// file offset of its serialized directory.
uint64_t BuildThreeEntryStore(const std::string& path) {
  auto builder = PostingStoreBuilder::Create(path, 256);
  EXPECT_TRUE(builder.ok());
  const std::string first(300, 'a'), last(40, 'c');
  EXPECT_TRUE((*builder)->Add(MakePostingKey(2, 0), first).ok());
  EXPECT_TRUE((*builder)->Add(MakePostingKey(1, 7), "bb").ok());
  EXPECT_TRUE((*builder)->Add(MakePostingKey(2, 9), last).ok());
  EXPECT_TRUE((*builder)->Finish().ok());
  // Header: magic u64 | page_size u32 | dir_offset u64 | dir_size u64 | ...
  uint64_t dir_offset = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 12, SEEK_SET);
  EXPECT_EQ(std::fread(&dir_offset, 8, 1, f), 1u);
  std::fclose(f);
  return 256 + dir_offset;  // the data region starts at page 1
}

/// Overwrites sizeof(T) bytes of the file at `path` at byte `at`.
template <typename T>
void Patch(const std::string& path, uint64_t at, T value) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(at), SEEK_SET);
  ASSERT_EQ(std::fwrite(&value, sizeof(T), 1, f), 1u);
  std::fclose(f);
}

// Directory entry i lies at 8 + 20 * i: u64 key, u64 offset, u32 length.
uint64_t DirEntryAt(uint64_t dir, int i) { return dir + 8 + 20 * i; }

TEST(PostingStoreTest, CorruptHeaderSizesAreCorruption) {
  // Header fields at byte 12 (dir_offset), 20 (dir_size), 28 (entry_count),
  // each blown up on its own: Open must answer Corruption, not allocate.
  for (uint64_t at : {12u, 20u, 28u}) {
    std::string path = TempFile("ps_hdr" + std::to_string(at));
    BuildThreeEntryStore(path);
    ASSERT_TRUE(PostingStore::Open(path, kTestGrid, 16, 256).ok());
    Patch(path, at, uint64_t{1} << 50);
    auto opened = PostingStore::Open(path, kTestGrid, 16, 256);
    EXPECT_TRUE(opened.status().IsCorruption())
        << "header byte " << at << ": " << opened.status().ToString();
  }
}

TEST(PostingStoreTest, DirectoryKeyOutsideGridIsCorruption) {
  for (PostingKey key : {MakePostingKey(8, 0), MakePostingKey(2, 4096)}) {
    std::string path = TempFile("ps_grid");
    const uint64_t dir = BuildThreeEntryStore(path);
    Patch(path, DirEntryAt(dir, 2), key);
    auto opened = PostingStore::Open(path, kTestGrid, 16, 256);
    EXPECT_TRUE(opened.status().IsCorruption())
        << key << ": " << opened.status().ToString();
  }
  // The same file opens against a grid just large enough for it.
  std::string path = TempFile("ps_grid_fit");
  BuildThreeEntryStore(path);
  EXPECT_TRUE(PostingStore::Open(path, PostingGrid{3, 10}, 16, 256).ok());
  auto fewer_segments = PostingStore::Open(path, PostingGrid{2, 10}, 16, 256);
  EXPECT_TRUE(fewer_segments.status().IsCorruption());
  auto fewer_slots = PostingStore::Open(path, PostingGrid{3, 9}, 16, 256);
  EXPECT_TRUE(fewer_slots.status().IsCorruption());
}

TEST(PostingStoreTest, UnsortedDirectoryIsCorruption) {
  {
    // Keys swapped, which leaves them ascending in segment-major order but
    // not in slot-major; the extents still tile.
    std::string path = TempFile("ps_unsorted");
    const uint64_t dir = BuildThreeEntryStore(path);
    Patch(path, DirEntryAt(dir, 0), MakePostingKey(1, 7));
    Patch(path, DirEntryAt(dir, 1), MakePostingKey(2, 0));
    auto opened = PostingStore::Open(path, kTestGrid, 16, 256);
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
  {
    // A repeated key.
    std::string path = TempFile("ps_repeat");
    const uint64_t dir = BuildThreeEntryStore(path);
    Patch(path, DirEntryAt(dir, 2), MakePostingKey(1, 7));
    auto opened = PostingStore::Open(path, kTestGrid, 16, 256);
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
}

/// Opens a fresh three-entry store after overwriting one extent field of
/// directory entry `entry`.
Status OpenWithOffset(int entry, uint64_t offset) {
  std::string path = TempFile("ps_extent");
  Patch(path, DirEntryAt(BuildThreeEntryStore(path), entry) + 8, offset);
  return PostingStore::Open(path, kTestGrid, 16, 256).status();
}

Status OpenWithLength(int entry, uint32_t length) {
  std::string path = TempFile("ps_extent");
  Patch(path, DirEntryAt(BuildThreeEntryStore(path), entry) + 16, length);
  return PostingStore::Open(path, kTestGrid, 16, 256).status();
}

TEST(PostingStoreTest, ExtentGapOrOverlapIsCorruption) {
  // The pristine extents: [0, 300), [300, 302), [302, 342).
  EXPECT_TRUE(OpenWithOffset(1, 300).ok());
  // Offsets: a gap, an overlap, a first extent not at 0.
  EXPECT_TRUE(OpenWithOffset(1, 301).IsCorruption());
  EXPECT_TRUE(OpenWithOffset(1, 299).IsCorruption());
  EXPECT_TRUE(OpenWithOffset(0, 1).IsCorruption());
  // Lengths: too short (gap), too long (overlap), past the directory.
  EXPECT_TRUE(OpenWithLength(0, 299).IsCorruption());
  EXPECT_TRUE(OpenWithLength(1, 3).IsCorruption());
  EXPECT_TRUE(OpenWithLength(2, 1 << 20).IsCorruption());
}

TEST(PostingStoreTest, SegmentMajorMagicIsCorruption) {
  // A file from the segment-major layout ("STRRPSTO") is not misread as
  // slot-major cells.
  std::string path = TempFile("ps_old_magic");
  BuildThreeEntryStore(path);
  ASSERT_TRUE(PostingStore::Open(path, kTestGrid, 16, 256).ok());
  Patch(path, 0, uint64_t{0x535452525053544f});
  auto opened = PostingStore::Open(path, kTestGrid, 16, 256);
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

TEST(PostingStoreTest, TruncatedFileFailsOpen) {
  std::string path = TempFile("ps11");
  {
    auto builder = PostingStoreBuilder::Create(path, 256);
    ASSERT_TRUE(builder.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*builder)->Add(i, std::string(100, 'b')).ok());
    }
    ASSERT_TRUE((*builder)->Finish().ok());
  }
  // Chop the file to half its pages (keeping page alignment).
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, (size / 2 / 256) * 256);
  EXPECT_FALSE(PostingStore::Open(path, kTestGrid, 16, 256).ok());
}

}  // namespace
}  // namespace strr
