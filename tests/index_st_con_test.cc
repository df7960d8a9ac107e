// Tests for SpeedProfile, StIndex and ConIndex against the shared small
// dataset and hand-built fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>

#include "index/con_index.h"
#include "index/speed_profile.h"
#include "index/st_index.h"
#include "query/probability.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace strr {
namespace {

using testing_util::ExpandFrom;
using testing_util::GetSharedStack;
using testing_util::MakeGridNetwork;
using testing_util::MakeTempDir;
using testing_util::SortedIntersects;

/// Hand-built store: one taxi crossing segment 0 at 08:00 on days 0 and 2,
/// fast on day 0 (20 m/s) and slow on day 2 (4 m/s).
std::unique_ptr<TrajectoryStore> TinyStore() {
  auto store = std::make_unique<TrajectoryStore>(3);
  MatchedTrajectory t0;
  t0.id = 0;
  t0.taxi = 0;
  t0.day = 0;
  t0.samples = {{0, MakeTimestamp(0, HMS(8)), 20.0f},
                {1, MakeTimestamp(0, HMS(8, 1)), 20.0f}};
  EXPECT_TRUE(store->Add(std::move(t0)).ok());
  MatchedTrajectory t2;
  t2.id = 1;
  t2.taxi = 0;
  t2.day = 2;
  t2.samples = {{0, MakeTimestamp(2, HMS(8)), 4.0f}};
  EXPECT_TRUE(store->Add(std::move(t2)).ok());
  return store;
}

// --- SpeedProfile ------------------------------------------------------------

TEST(SpeedProfileTest, MinMaxMeanFromObservations) {
  RoadNetwork net = MakeGridNetwork(2, 3, 300.0);
  auto store = TinyStore();
  auto profile = SpeedProfile::Build(net, *store);
  ASSERT_TRUE(profile.ok());
  EXPECT_TRUE(profile->HasObservations(0, HMS(8)));
  EXPECT_DOUBLE_EQ(profile->MinSpeed(0, HMS(8)), 4.0);
  EXPECT_DOUBLE_EQ(profile->MaxSpeed(0, HMS(8)), 20.0);
  EXPECT_DOUBLE_EQ(profile->MeanSpeed(0, HMS(8)), 12.0);
}

TEST(SpeedProfileTest, FallbackToLevelAggregate) {
  RoadNetwork net = MakeGridNetwork(2, 3, 300.0);
  auto store = TinyStore();
  auto profile = SpeedProfile::Build(net, *store);
  ASSERT_TRUE(profile.ok());
  // Segment 5 has no samples but shares the local level with segment 0.
  EXPECT_FALSE(profile->HasObservations(5, HMS(8)));
  EXPECT_DOUBLE_EQ(profile->MinSpeed(5, HMS(8)), 4.0);
  EXPECT_DOUBLE_EQ(profile->MaxSpeed(5, HMS(8)), 20.0);
}

TEST(SpeedProfileTest, FallbackToFreeFlowWhenNoDataAtAll) {
  RoadNetwork net = MakeGridNetwork(2, 3, 300.0);
  auto store = TinyStore();
  auto profile = SpeedProfile::Build(net, *store);
  ASSERT_TRUE(profile.ok());
  // 03:00 slot has no observations anywhere.
  double ff = FreeFlowSpeed(RoadLevel::kLocal);
  EXPECT_DOUBLE_EQ(profile->MaxSpeed(0, HMS(3)), ff);
  EXPECT_DOUBLE_EQ(profile->MinSpeed(0, HMS(3)), 0.2 * ff);
  EXPECT_DOUBLE_EQ(profile->MeanSpeed(0, HMS(3)), 0.7 * ff);
}

TEST(SpeedProfileTest, ZeroSpeedsDropped) {
  RoadNetwork net = MakeGridNetwork(2, 3, 300.0);
  auto store = std::make_unique<TrajectoryStore>(1);
  MatchedTrajectory t;
  t.id = 0;
  t.day = 0;
  t.samples = {{0, MakeTimestamp(0, HMS(8)), 0.0f},   // parked: dropped
               {0, MakeTimestamp(0, HMS(8, 1)), 6.0f}};
  ASSERT_TRUE(store->Add(std::move(t)).ok());
  auto profile = SpeedProfile::Build(net, *store);
  ASSERT_TRUE(profile.ok());
  EXPECT_DOUBLE_EQ(profile->MinSpeed(0, HMS(8)), 6.0);
}

TEST(SpeedProfileTest, SlotWidthValidation) {
  RoadNetwork net = MakeGridNetwork(2, 2, 300.0);
  auto store = TinyStore();
  EXPECT_FALSE(SpeedProfile::Build(net, *store, {.slot_seconds = 0}).ok());
  EXPECT_FALSE(SpeedProfile::Build(net, *store, {.slot_seconds = 7000}).ok());
  EXPECT_TRUE(SpeedProfile::Build(net, *store, {.slot_seconds = 1800}).ok());
}

TEST(SpeedProfileTest, CoverageFractionOnSharedDataset) {
  auto& stack = GetSharedStack();
  const auto& profile = stack.engine->speed_profile();
  double coverage = profile.CoverageFraction();
  EXPECT_GT(coverage, 0.02);
  EXPECT_LE(coverage, 1.0);
}

// --- StIndex -----------------------------------------------------------------

class StIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = MakeGridNetwork(2, 3, 300.0);
    store_ = TinyStore();
    StIndexOptions opt;
    opt.slot_seconds = 300;
    opt.posting_path = MakeTempDir("st") + "/postings.bin";
    auto index = StIndex::Build(net_, *store_, opt);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
  }

  RoadNetwork net_;
  std::unique_ptr<TrajectoryStore> store_;
  std::unique_ptr<StIndex> index_;
};

TEST_F(StIndexTest, SlotLookups) {
  EXPECT_EQ(index_->slots_per_day(), 288);
  EXPECT_EQ(index_->SlotForTime(0), 0);
  EXPECT_EQ(index_->SlotForTime(299), 0);
  EXPECT_EQ(index_->SlotForTime(HMS(8)), 96);
  EXPECT_EQ(index_->SlotForTime(HMS(23, 59)), 287);
}

TEST(StIndexSlotTest, SlotForTimeIsFloorDivisionOfTheTimeOfDay) {
  // Every second of [-1 day, 2 days): the slot of t is the floor of t's
  // time of day over Δt, for widths that divide the day and widths that
  // leave a short last slot.
  RoadNetwork net = MakeGridNetwork(2, 2, 300.0);
  auto store = TinyStore();
  for (int64_t dt : {1, 7, 300, 301, 86399, 86400}) {
    StIndexOptions opt;
    opt.slot_seconds = dt;
    opt.posting_path =
        MakeTempDir("slot" + std::to_string(dt)) + "/postings.bin";
    auto index = StIndex::Build(net, *store, opt);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    int64_t mismatches = 0;
    for (int64_t t = -kSecondsPerDay; t < 2 * kSecondsPerDay; ++t) {
      const int64_t day_start =
          (t >= 0 ? t / kSecondsPerDay : (t + 1) / kSecondsPerDay - 1) *
          kSecondsPerDay;
      const SlotId want = static_cast<SlotId>((t - day_start) / dt);
      mismatches += (*index)->SlotForTime(t) != want;
    }
    EXPECT_EQ(mismatches, 0) << "dt " << dt;
  }
}

TEST_F(StIndexTest, SlotsCoveringRanges) {
  auto slots = index_->SlotsCovering(HMS(8), HMS(8) + 600);
  EXPECT_EQ(slots, (std::vector<SlotId>{96, 97}));
  slots = index_->SlotsCovering(HMS(8), HMS(8) + 1);
  EXPECT_EQ(slots, (std::vector<SlotId>{96}));
  EXPECT_TRUE(index_->SlotsCovering(100, 100).empty());
  // Clamped to the day.
  slots = index_->SlotsCovering(HMS(23, 55), HMS(23, 55) + 900);
  EXPECT_EQ(slots, (std::vector<SlotId>{287}));
  slots = index_->SlotsCovering(-600, 300);
  EXPECT_EQ(slots, (std::vector<SlotId>{0}));
  // Ranges wholly outside the day cover nothing.
  EXPECT_TRUE(index_->SlotsCovering(-HMS(1), -HMS(1) + 600).empty());
  EXPECT_TRUE(index_->SlotsCovering(-600, 0).empty());
  EXPECT_TRUE(
      index_->SlotsCovering(kSecondsPerDay, kSecondsPerDay + 600).empty());
  EXPECT_TRUE(index_->SlotsCovering(HMS(32), HMS(32) + 600).empty());
}

TEST_F(StIndexTest, LocateSegmentFindsNearest) {
  // Point just above the middle of segment 0 (bottom-left horizontal road).
  auto seg = index_->LocateSegment({150.0, 5.0});
  ASSERT_TRUE(seg.ok());
  double d = net_.segment(*seg).shape.Project({150.0, 5.0}).distance;
  auto brute = net_.NearestSegmentBruteForce({150.0, 5.0});
  ASSERT_TRUE(brute.ok());
  double bd = net_.segment(*brute).shape.Project({150.0, 5.0}).distance;
  EXPECT_NEAR(d, bd, 1e-9);
}

TEST_F(StIndexTest, LocateCapSnapsJustInsideAndRejectsJustOutside) {
  // The fixture keeps the default 25 km cap; the bottom road (y = 0) is
  // the nearest one to every point below the grid.
  ASSERT_EQ(StIndexOptions{}.max_locate_distance_m, 25000.0);
  const XyPoint inside{150.0, -24999.0};
  auto seg = index_->LocateSegment(inside);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  EXPECT_NEAR(net_.segment(*seg).shape.Project(inside).distance, 24999.0,
              1e-6);
  auto outside = index_->LocateSegment({150.0, -25001.0});
  EXPECT_TRUE(outside.status().IsNotFound()) << outside.status().ToString();
}

TEST_F(StIndexTest, NonPositiveLocateCapSnapsUnconditionally) {
  const XyPoint far{150.0, -1.0e6};
  for (double cap : {0.0, -1.0}) {
    StIndexOptions opt;
    opt.slot_seconds = 300;
    opt.posting_path = MakeTempDir(cap == 0.0 ? "st_cap0" : "st_capneg") +
                       "/postings.bin";
    opt.max_locate_distance_m = cap;
    auto index = StIndex::Build(net_, *store_, opt);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto seg = (*index)->LocateSegment(far);
    ASSERT_TRUE(seg.ok()) << "cap=" << cap << ": " << seg.status().ToString();
    auto brute = net_.NearestSegmentBruteForce(far);
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(net_.segment(*seg).shape.Project(far).distance,
                net_.segment(*brute).shape.Project(far).distance, 1e-6);
  }
}

TEST_F(StIndexTest, TimeListsMatchStoreContents) {
  SlotId slot = index_->SlotForTime(HMS(8));
  auto lists = index_->ReadTimeList(0, slot);
  ASSERT_TRUE(lists.ok());
  ASSERT_EQ(lists->size(), 3u);  // 3 days
  EXPECT_EQ((*lists)[0], (std::vector<TrajectoryId>{0}));
  EXPECT_TRUE((*lists)[1].empty());
  EXPECT_EQ((*lists)[2], (std::vector<TrajectoryId>{1}));
}

TEST_F(StIndexTest, NoTrafficSlotsEmptyWithoutIo) {
  SlotId slot = index_->SlotForTime(HMS(3));
  EXPECT_FALSE(index_->HasTraffic(0, slot));
  index_->ResetStorageStats();
  auto lists = index_->ReadTimeList(0, slot);
  ASSERT_TRUE(lists.ok());
  for (const auto& day : *lists) EXPECT_TRUE(day.empty());
  EXPECT_EQ(index_->storage_stats().TotalRequests(), 0u);
}

TEST_F(StIndexTest, MarkDaysIntersectingReportsAbsentListsDistinctly) {
  // Every (segment, slot) of the grid through a one-slot window: a list is
  // read exactly where HasTraffic is true; an absent one costs no I/O.
  const StartIdSets start_sets({{0}, {}, {1}});
  int present = 0;
  for (SegmentId seg = 0; seg < net_.NumSegments(); ++seg) {
    for (SlotId slot = 0; slot < index_->slots_per_day(); ++slot) {
      std::vector<uint8_t> hit(3, 0);
      index_->ResetStorageStats();
      PostingStore::Window window = index_->TimeListWindow(slot, slot);
      auto marks = index_->MarkDaysIntersecting(seg, &window, start_sets,
                                                &hit, index_->num_days());
      ASSERT_TRUE(marks.ok()) << marks.status().ToString();
      if (index_->HasTraffic(seg, slot)) {
        EXPECT_EQ(marks->lists_read, 1u) << seg << "/" << slot;
        ++present;
      } else {
        EXPECT_EQ(marks->lists_read, 0u) << seg << "/" << slot;
        EXPECT_EQ(marks->days_marked, 0);
        EXPECT_EQ(index_->storage_stats().TotalRequests(), 0u);
        EXPECT_EQ(hit, std::vector<uint8_t>(3, 0));
      }
    }
  }
  EXPECT_EQ(static_cast<uint64_t>(present), index_->NumPostings());

  // A present list that shares no id with the start lists is read and
  // marks 0 days.
  const SlotId slot = index_->SlotForTime(HMS(8));
  PostingStore::Window window = index_->TimeListWindow(slot, slot);
  std::vector<uint8_t> hit(3, 0);
  auto none = index_->MarkDaysIntersecting(
      0, &window, StartIdSets({{}, {}, {}}), &hit, index_->num_days());
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->lists_read, 1u);
  EXPECT_EQ(none->days_marked, 0);
  auto both = index_->MarkDaysIntersecting(0, &window, start_sets, &hit,
                                           index_->num_days());
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->days_marked, 2);
  EXPECT_EQ(hit, (std::vector<uint8_t>{1, 0, 1}));

  // A window reaching past either end of the day covers the slots inside
  // it and finds the same list; an empty range reads nothing.
  std::fill(hit.begin(), hit.end(), 0);
  PostingStore::Window day_window =
      index_->TimeListWindow(-1, index_->slots_per_day());
  EXPECT_EQ(day_window.first_slot(), 0u);
  EXPECT_EQ(day_window.end_slot(),
            static_cast<uint32_t>(index_->slots_per_day()));
  auto day = index_->MarkDaysIntersecting(0, &day_window, start_sets, &hit,
                                          index_->num_days());
  ASSERT_TRUE(day.ok());
  EXPECT_EQ(day->days_marked, 2);
  EXPECT_EQ(day->lists_read, 1u);
  for (auto [first, last] : {std::pair<SlotId, SlotId>{slot + 1, slot},
                             {-5, -1},
                             {index_->slots_per_day(),
                              index_->slots_per_day() + 3}}) {
    std::fill(hit.begin(), hit.end(), 0);
    PostingStore::Window empty_window = index_->TimeListWindow(first, last);
    EXPECT_EQ(empty_window.first_slot(), empty_window.end_slot());
    auto empty = index_->MarkDaysIntersecting(0, &empty_window, start_sets,
                                              &hit, index_->num_days());
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty->lists_read, 0u);
  }
}

TEST_F(StIndexTest, SegmentsInRange) {
  auto segs = net_.spatial_index().Search(Mbr(-10, -10, 310, 10));
  // Bottom edge of the grid: both directions of segment pair 0 at least.
  EXPECT_GE(segs.size(), 2u);
  for (SegmentId s : segs) {
    EXPECT_TRUE(
        net_.segment(s).bounding_box().Intersects(Mbr(-10, -10, 310, 10)));
  }
}

TEST_F(StIndexTest, ReadCostsIo) {
  index_->ResetStorageStats();
  index_->DropCache();
  SlotId slot = index_->SlotForTime(HMS(8));
  ASSERT_TRUE(index_->ReadTimeList(0, slot).ok());
  auto stats = index_->storage_stats();
  EXPECT_GE(stats.cache_misses, 1u);
  ASSERT_TRUE(index_->ReadTimeList(0, slot).ok());
  stats = index_->storage_stats();
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST_F(StIndexTest, BuildValidation) {
  StIndexOptions opt;  // missing posting path
  opt.slot_seconds = 300;
  EXPECT_TRUE(StIndex::Build(net_, *store_, opt).status().IsInvalidArgument());
  opt.posting_path = MakeTempDir("stbad") + "/p.bin";
  opt.slot_seconds = 0;
  EXPECT_TRUE(StIndex::Build(net_, *store_, opt).status().IsInvalidArgument());

  // A sample before day 0 (in a negative slot, or truncated into slot 0)
  // never reaches Build: Add refuses it, and the store builds as before.
  for (Timestamp ts : {Timestamp{-1000}, Timestamp{-5}}) {
    MatchedTrajectory t;
    t.id = 7;
    t.day = 0;
    t.samples = {{1, ts, 10.0f}};
    EXPECT_TRUE(store_->Add(std::move(t)).IsInvalidArgument()) << ts;
  }
  opt.slot_seconds = 300;
  auto rebuilt = StIndex::Build(net_, *store_, opt);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ((*rebuilt)->NumPostings(), index_->NumPostings());
}

// --- Build against the tuple-sort reference ----------------------------------

/// The tuple sort Build used before its counting sort, kept as the
/// reference: one (key, day, id) tuple per sample on a network segment,
/// sorted into slot-major key order, then day, then id, with duplicates
/// dropped.
struct BuildTuple {
  PostingKey key;
  uint32_t day;
  TrajectoryId traj;

  bool operator<(const BuildTuple& o) const {
    if (key != o.key) return PostingSlotMajor(key) < PostingSlotMajor(o.key);
    if (day != o.day) return day < o.day;
    return traj < o.traj;
  }
  bool operator==(const BuildTuple& o) const {
    return key == o.key && day == o.day && traj == o.traj;
  }
};

/// Each cell's blob as the tuple sort encoded it: varint day count, then
/// per present day a varint day and a sorted-delta id list.
std::map<PostingKey, std::string> TupleSortPostings(
    const RoadNetwork& net, const TrajectoryStore& store,
    int64_t slot_seconds) {
  std::vector<BuildTuple> tuples;
  store.ForEach([&](const MatchedTrajectory& traj) {
    for (const MatchedSample& s : traj.samples) {
      if (s.segment >= net.NumSegments()) continue;
      const SlotId slot = SlotOf(s.timestamp, slot_seconds);
      tuples.push_back({MakePostingKey(s.segment, static_cast<uint32_t>(slot)),
                        static_cast<uint32_t>(traj.day), traj.id});
    }
  });
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  std::map<PostingKey, std::string> out;
  size_t i = 0;
  while (i < tuples.size()) {
    const PostingKey key = tuples[i].key;
    std::vector<std::pair<uint32_t, std::vector<TrajectoryId>>> days;
    while (i < tuples.size() && tuples[i].key == key) {
      const uint32_t day = tuples[i].day;
      std::vector<TrajectoryId> ids;
      while (i < tuples.size() && tuples[i].key == key &&
             tuples[i].day == day) {
        ids.push_back(tuples[i].traj);
        ++i;
      }
      days.emplace_back(day, std::move(ids));
    }
    BinaryWriter w;
    w.PutVarint32(static_cast<uint32_t>(days.size()));
    for (const auto& [day, ids] : days) {
      w.PutVarint32(day);
      w.PutU32List(ids, /*sorted=*/true);
    }
    out[key] = w.Release();
  }
  return out;
}

/// Builds over `store` with slot width `slot_seconds` and checks every cell
/// of the grid: the reference's blob where it has one, NotFound elsewhere.
void ExpectBuildMatchesTupleSort(const RoadNetwork& net,
                                 const TrajectoryStore& store,
                                 int64_t slot_seconds) {
  SCOPED_TRACE("slot_seconds " + std::to_string(slot_seconds));
  StIndexOptions opt;
  opt.slot_seconds = slot_seconds;
  opt.posting_path = MakeTempDir("build_diff") + "/postings.bin";
  auto index = StIndex::Build(net, store, opt);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const std::map<PostingKey, std::string> want =
      TupleSortPostings(net, store, slot_seconds);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ((*index)->NumPostings(), want.size());

  const PostingGrid grid{static_cast<uint32_t>(net.NumSegments()),
                         static_cast<uint32_t>((*index)->slots_per_day())};
  auto postings = PostingStore::Open(opt.posting_path, grid, 64);
  ASSERT_TRUE(postings.ok()) << postings.status().ToString();
  size_t matched = 0;
  for (uint32_t slot = 0; slot < grid.slots; ++slot) {
    for (uint32_t seg = 0; seg < grid.num_segments; ++seg) {
      const PostingKey key = MakePostingKey(seg, slot);
      auto got = (*postings)->Get(key);
      auto it = want.find(key);
      if (it == want.end()) {
        ASSERT_TRUE(got.status().IsNotFound())
            << seg << "/" << slot << ": " << got.status().ToString();
        continue;
      }
      ASSERT_TRUE(got.ok()) << seg << "/" << slot << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, it->second) << seg << "/" << slot;
      ++matched;
    }
  }
  EXPECT_EQ(matched, want.size());
}

TEST(StIndexBuildTest, MatchesTupleSortOnHandBuiltStore) {
  RoadNetwork net = testing_util::MakeChainNetwork(4);
  const SegmentId last = static_cast<SegmentId>(net.NumSegments() - 1);
  TrajectoryStore store(3);
  auto add = [&](TrajectoryId id, DayIndex day,
                 std::vector<MatchedSample> samples) {
    MatchedTrajectory t;
    t.id = id;
    t.taxi = id;
    t.day = day;
    t.samples = std::move(samples);
    ASSERT_TRUE(store.Add(std::move(t)).ok());
  };
  auto at = [](DayIndex day, int64_t tod) { return MakeTimestamp(day, tod); };
  // Day 0: a revisit of segment 0 after segment 1 within one slot; two
  // consecutive samples on segment 2, then samples off the network, then
  // segment 2 again; a sample past midnight, filed under the trajectory's
  // day; the grid's last cell.
  add(5, 0,
      {{0, at(0, HMS(8)), 10.0f},
       {1, at(0, HMS(8, 0, 20)), 10.0f},
       {0, at(0, HMS(8, 0, 40)), 10.0f},
       {2, at(0, HMS(8, 1)), 10.0f},
       {2, at(0, HMS(8, 1, 10)), 10.0f},
       {static_cast<SegmentId>(net.NumSegments()), at(0, HMS(8, 2)), 10.0f},
       {kInvalidSegment, at(0, HMS(8, 2, 30)), 10.0f},
       {2, at(0, HMS(8, 3)), 10.0f},
       {last, at(0, kSecondsPerDay - 1), 10.0f},
       {last, at(1, 100), 10.0f}});
  // Day 1: ids added out of order, all through one cell and one of them
  // through a second.
  add(9, 1, {{0, at(1, HMS(9)), 10.0f}, {1, at(1, HMS(9, 1)), 10.0f}});
  add(3, 1, {{0, at(1, HMS(9, 0, 30)), 10.0f}});
  add(7, 1, {{0, at(1, HMS(9, 0, 50)), 10.0f}, {1, at(1, HMS(9, 2)), 10.0f}});
  // Day 2: the same cells again, the short last slot of a 700 s grid
  // (86 100 s onwards), and the grid's last cell.
  add(11, 2, {{0, at(2, HMS(8)), 10.0f}, {1, at(2, HMS(9, 1)), 10.0f}});
  add(12, 2,
      {{1, at(2, 86100 + 50), 10.0f},
       {last, at(2, kSecondsPerDay - 1), 10.0f}});
  add(4, 2, {{0, at(2, HMS(8, 4)), 10.0f}, {0, at(2, HMS(9)), 10.0f}});
  for (int64_t slot_seconds : {300, 700}) {
    ExpectBuildMatchesTupleSort(net, store, slot_seconds);
  }
}

TEST(StIndexBuildTest, MatchesTupleSortOnSharedDataset) {
  auto& stack = GetSharedStack();
  for (int64_t slot_seconds : {300, 700}) {
    ExpectBuildMatchesTupleSort(stack.dataset.network, *stack.dataset.store,
                                slot_seconds);
  }
}

TEST(StIndexSharedTest, EveryStoredSampleIsFindable) {
  auto& stack = GetSharedStack();
  const StIndex& index = stack.engine->st_index();
  // Spot-check 200 samples across the dataset: the trajectory id must be
  // present in the (segment, slot, day) time list.
  int checked = 0;
  stack.dataset.store->ForEach([&](const MatchedTrajectory& t) {
    if (checked >= 200 || t.id % 37 != 0) return;
    for (size_t i = 0; i < t.samples.size(); i += 25) {
      const MatchedSample& s = t.samples[i];
      SlotId slot = SlotOf(s.timestamp, index.slot_seconds());
      auto lists = index.ReadTimeList(s.segment, slot);
      ASSERT_TRUE(lists.ok());
      const auto& day_list = (*lists)[t.day];
      EXPECT_TRUE(std::binary_search(day_list.begin(), day_list.end(), t.id))
          << "traj " << t.id << " missing from (" << s.segment << "," << slot
          << "," << t.day << ")";
      ++checked;
    }
  });
  EXPECT_GT(checked, 20);
}

// --- Time-list decoder mutation sweep ----------------------------------------

/// One posting blob's key and byte extent in the file, parsed from the
/// store's header and directory so the sweep can aim at real blobs.
struct BlobExtent {
  PostingKey key;
  uint64_t file_offset;
  uint32_t length;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void OverwriteFile(const std::string& path, uint64_t offset,
                   const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

/// Header (page 0): magic u64 | page_size u32 | dir_offset u64 | dir_size
/// u64; the directory lists (key u64, offset u64, length u32) with offsets
/// relative to the data region, which starts at page 1.
std::vector<BlobExtent> PostingExtents(const std::string& file,
                                       uint32_t page_size) {
  BinaryReader header(file.data(), page_size);
  EXPECT_TRUE(header.GetU64().ok());
  EXPECT_TRUE(header.GetU32().ok());
  const uint64_t dir_offset = header.GetU64().value();
  const uint64_t dir_size = header.GetU64().value();
  BinaryReader dir(file.data() + page_size + dir_offset, dir_size);
  const uint64_t n = dir.GetU64().value();
  std::vector<BlobExtent> out;
  for (uint64_t i = 0; i < n; ++i) {
    PostingKey key = dir.GetU64().value();
    uint64_t offset = dir.GetU64().value();
    uint32_t length = dir.GetU32().value();
    out.push_back({key, page_size + offset, length});
  }
  return out;
}

/// Per-day hits the materialised way: ReadTimeList, then SortedIntersects
/// against each day's start ids.
Status ReferenceDayHits(const StIndex& index, SegmentId seg, SlotId slot,
                        const std::vector<std::vector<TrajectoryId>>& start,
                        std::vector<uint8_t>* hit) {
  STRR_ASSIGN_OR_RETURN(TimeList lists, index.ReadTimeList(seg, slot));
  for (size_t d = 0; d < lists.size(); ++d) {
    if (SortedIntersects(start[d], lists[d])) (*hit)[d] = 1;
  }
  return Status::OK();
}

/// A segment's verification the per-slot way: ReferenceDayHits on each present
/// slot of [first, last] in order, stopping once every day is hit. Returns
/// the lists read, or the error of the first corrupt list it reaches.
StatusOr<uint32_t> ReferenceRowHits(
    const StIndex& index, SegmentId seg, SlotId first, SlotId last,
    const std::vector<std::vector<TrajectoryId>>& start,
    std::vector<uint8_t>* hit) {
  uint32_t read = 0;
  for (SlotId slot = first; slot <= last; ++slot) {
    if (std::count(hit->begin(), hit->end(), 0) == 0) break;
    if (!index.HasTraffic(seg, slot)) continue;
    STRR_RETURN_IF_ERROR(ReferenceDayHits(index, seg, slot, start, hit));
    ++read;
  }
  return read;
}

/// Distinct pages holding the bytes of segment `seg`'s lists over
/// [first, last]; `blobs` is in the file's slot-major order.
std::set<uint64_t> RowPages(const std::vector<BlobExtent>& blobs,
                            uint32_t page_size, SegmentId seg, SlotId first,
                            SlotId last) {
  std::set<uint64_t> pages;
  for (SlotId slot = first; slot <= last; ++slot) {
    const PostingKey key = MakePostingKey(seg, static_cast<uint32_t>(slot));
    auto it = std::lower_bound(
        blobs.begin(), blobs.end(), key, [](const BlobExtent& b, PostingKey k) {
          return PostingSlotMajor(b.key) < PostingSlotMajor(k);
        });
    if (it == blobs.end() || it->key != key || it->length == 0) continue;
    for (uint64_t page = it->file_offset / page_size;
         page <= (it->file_offset + it->length - 1) / page_size; ++page) {
      pages.insert(page);
    }
  }
  return pages;
}

/// Marks the bytes of `blob` (a well-formed time list) that hold ids a
/// verification against `sparse_start` declines: every id of a day with no
/// start ids, and every id after a day's first when that day's start ids
/// are {0} (its first id either is 0 or lies past the max).
std::vector<bool> DeclinedIdBytes(
    const std::string& blob,
    const std::vector<std::vector<TrajectoryId>>& sparse_start) {
  std::vector<bool> declined(blob.size(), false);
  BinaryReader r(blob.data(), blob.size());
  const uint32_t days = r.GetVarint32().value();
  for (uint32_t i = 0; i < days; ++i) {
    const uint32_t day = r.GetVarint32().value();
    const uint32_t count = r.GetVarint32().value();
    for (uint32_t k = 0; k < count; ++k) {
      const size_t from = r.position();
      EXPECT_TRUE(r.GetVarint32().ok());
      if (sparse_start[day].empty() || k > 0) {
        std::fill(declined.begin() + from, declined.begin() + r.position(),
                  true);
      }
    }
  }
  return declined;
}

TEST(TimeListDecoderTest, MutationSweepStreamingAgreesWithReadTimeList) {
  auto& stack = GetSharedStack();
  StIndexOptions opt;
  opt.posting_path = MakeTempDir("st_mutate") + "/postings.bin";
  opt.cache_pages = 64;
  auto built =
      StIndex::Build(stack.dataset.network, *stack.dataset.store, opt);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  StIndex& index = **built;
  const std::string pristine = ReadWholeFile(opt.posting_path);
  const std::vector<BlobExtent> blobs =
      PostingExtents(pristine, opt.page_size);
  ASSERT_EQ(blobs.size(), index.NumPostings());

  // Every third trajectory id on every day: some days hit, others miss.
  TrajectoryId max_id = 0;
  stack.dataset.store->ForEach(
      [&](const MatchedTrajectory& t) { max_id = std::max(max_id, t.id); });
  std::vector<std::vector<TrajectoryId>> start(index.num_days());
  for (auto& ids : start) {
    for (TrajectoryId id = 0; id <= max_id; id += 3) ids.push_back(id);
  }
  // Odd days without start ids, even days with only id 0: nearly every id
  // a verification decodes is declined, so mutations land in declined runs,
  // which the decoder must still check in full.
  std::vector<std::vector<TrajectoryId>> sparse(index.num_days());
  for (size_t d = 0; d < sparse.size(); d += 2) sparse[d] = {0};
  const StartIdSets start_sets(start), sparse_sets(sparse);

  // Verifies b's segment through a window over [slot - before, slot +
  // after], which puts b's list in the middle of the segment's walk,
  // against the per-slot reference. The walk must fail exactly when the
  // reference reaches a corrupt list, and must never request a page that
  // holds none of the segment's lists over those slots.
  int clean = 0, corrupt = 0, sandwiched = 0;
  auto check = [&](const BlobExtent& b, int before, int after,
                   const std::vector<std::vector<TrajectoryId>>& ids,
                   const StartIdSets& sets, const std::string& what) {
    const auto seg = static_cast<SegmentId>(b.key >> 32);
    const auto slot = static_cast<SlotId>(b.key & 0xffffffffu);
    const SlotId first = std::max<SlotId>(0, slot - before);
    const SlotId last = std::min<SlotId>(index.slots_per_day() - 1,
                                         slot + after);
    if ((first < slot && index.HasTraffic(seg, first)) &&
        (last > slot && index.HasTraffic(seg, last))) {
      ++sandwiched;
    }
    std::vector<uint8_t> want(ids.size(), 0), got(ids.size(), 0);
    auto ref = ReferenceRowHits(index, seg, first, last, ids, &want);
    index.DropCache();
    index.ResetStorageStats();
    PostingStore::Window window = index.TimeListWindow(first, last);
    auto marks = index.MarkDaysIntersecting(seg, &window, sets, &got,
                                            index.num_days());
    EXPECT_LE(index.storage_stats().TotalRequests(),
              RowPages(blobs, opt.page_size, seg, first, last).size())
        << what;
    if (ref.ok()) {
      ASSERT_TRUE(marks.ok()) << what << ": " << marks.status().ToString();
      EXPECT_EQ(got, want) << what;
      EXPECT_EQ(marks->days_marked, std::count(want.begin(), want.end(), 1))
          << what;
      EXPECT_EQ(marks->lists_read, *ref) << what;
      ++clean;
    } else {
      EXPECT_TRUE(ref.status().IsCorruption())
          << what << ": " << ref.status().ToString();
      ASSERT_FALSE(marks.ok()) << what;
      // Declined ids fail the same way as collected ones.
      EXPECT_EQ(marks.status().ToString(), ref.status().ToString()) << what;
      ++corrupt;
    }
  };

  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    const BlobExtent& b = blobs[rng.UniformInt(0, blobs.size() - 1)];
    const auto before = static_cast<int>(rng.UniformInt(0, 6));
    const auto after = static_cast<int>(rng.UniformInt(0, 6));
    check(b, before, after, start, start_sets, "pristine");
    check(b, before, after, sparse, sparse_sets, "pristine sparse");
  }
  ASSERT_EQ(corrupt, 0);

  int in_declined = 0;
  for (int m = 0; m < 600; ++m) {
    const BlobExtent& b = blobs[rng.UniformInt(0, blobs.size() - 1)];
    if (b.length == 0) continue;
    const std::string original = pristine.substr(b.file_offset, b.length);
    std::string bytes = original;
    const auto pos = static_cast<size_t>(rng.UniformInt(0, b.length - 1));
    in_declined += DeclinedIdBytes(original, sparse)[pos];
    std::string kind;
    switch (m % 3) {
      case 0:  // flip bits in one byte
        bytes[pos] ^= static_cast<char>(rng.UniformInt(1, 255));
        kind = "flip";
        break;
      case 1:  // every varint from pos on runs past the blob's end
        std::fill(bytes.begin() + pos, bytes.end(), '\xff');
        kind = "truncate";
        break;
      default:  // a large one-byte count, day or delta
        bytes[pos] = '\x7f';
        kind = "inflate";
        break;
    }
    const auto before = static_cast<int>(rng.UniformInt(1, 6));
    const auto after = static_cast<int>(rng.UniformInt(1, 6));
    OverwriteFile(opt.posting_path, b.file_offset, bytes);
    index.DropCache();
    const std::string what = kind + " at byte " + std::to_string(pos) +
                             " of key " + std::to_string(b.key);
    check(b, before, after, start, start_sets, what);
    check(b, before, after, sparse, sparse_sets, what + " (sparse)");
    OverwriteFile(opt.posting_path, b.file_offset, original);
  }
  index.DropCache();
  EXPECT_GT(corrupt, 100);
  EXPECT_GT(clean, 500);
  EXPECT_GT(sandwiched, 200);
  EXPECT_GT(in_declined, 60);
}

// --- Start-id membership sets ------------------------------------------------

/// One day of a verification the way MarkDaysIntersecting walks it: ids in
/// order through a fresh probe until a member (true) or the first id past
/// the set's max (false). Also checks that a fallback day's cursor sits at
/// the first start id not below each id tested.
bool ProbeHits(const StartIdSets& sets, size_t day,
               const std::vector<TrajectoryId>& start_day,
               const std::vector<TrajectoryId>& list) {
  if (sets.empty(day)) return false;
  StartIdSets::DayProbe probe = sets.Probe(day);
  for (TrajectoryId id : list) {
    const StartIdSets::Membership m = probe.Test(id);
    if (m == StartIdSets::Membership::kPastMax) {
      EXPECT_GT(id, start_day.back());
      return false;
    }
    const auto lower = static_cast<size_t>(
        std::lower_bound(start_day.begin(), start_day.end(), id) -
        start_day.begin());
    EXPECT_EQ(probe.cursor(), sets.is_bitmap(day) ? 0 : lower) << id;
    if (m == StartIdSets::Membership::kPresent) return true;
  }
  return false;
}

/// Sorted, duplicate-free ids.
std::vector<TrajectoryId> SortedUnique(std::vector<TrajectoryId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TEST(StartIdSetsTest, SizesEachDayToItsRange) {
  constexpr TrajectoryId kTop = UINT32_MAX - 1;
  const std::vector<std::vector<TrajectoryId>> days = {
      {},        {7},          {0, 63},           {0, 64},
      {kTop},    {kTop - 64, kTop},
      {0, kTop},  // far too wide for a bitmap
      {0, StartIdSets::kMaxBitmapWords * 64 - 1},
      {0, StartIdSets::kMaxBitmapWords * 64}};
  const StartIdSets sets(days);
  ASSERT_EQ(sets.num_days(), days.size());
  EXPECT_EQ(sets.active_days(), 8);
  EXPECT_TRUE(sets.empty(0));
  const std::vector<bool> bitmap = {false, true, true, true, true,
                                    true,  false, true, false};
  for (size_t d = 0; d < days.size(); ++d) {
    EXPECT_EQ(sets.is_bitmap(d), bitmap[d]) << d;
  }
  // Words 1 + 1 + 2 + 1 + 2 + kMaxBitmapWords, plus 2 + 2 fallback ids.
  EXPECT_EQ(sets.memory_bytes(),
            (7 + StartIdSets::kMaxBitmapWords) * sizeof(uint64_t) +
                4 * sizeof(TrajectoryId));
  for (size_t d = 1; d < days.size(); ++d) {
    for (TrajectoryId id : days[d]) {
      EXPECT_EQ(sets.Probe(d).Test(id), StartIdSets::Membership::kPresent)
          << d << ": " << id;
    }
  }
  // An empty day holds no id.
  EXPECT_EQ(sets.Probe(0).Test(0), StartIdSets::Membership::kAbsent);
  EXPECT_EQ(sets.Probe(0).Test(7), StartIdSets::Membership::kPastMax);
  EXPECT_EQ(sets.Probe(1).Test(6), StartIdSets::Membership::kAbsent);
  EXPECT_EQ(sets.Probe(1).Test(8), StartIdSets::Membership::kPastMax);
  EXPECT_EQ(sets.Probe(6).Test(1), StartIdSets::Membership::kAbsent);
  EXPECT_EQ(sets.Probe(6).Test(UINT32_MAX), StartIdSets::Membership::kPastMax);
  EXPECT_EQ(sets.Probe(5).Test(kTop - 65), StartIdSets::Membership::kAbsent);
  EXPECT_EQ(sets.Probe(5).Test(kTop - 1), StartIdSets::Membership::kAbsent);
}

TEST(StartIdSetsTest, DifferentialAgainstSortedIntersects) {
  // Each query mixes days of every shape; each day is then probed with
  // random lists built around its edges.
  constexpr TrajectoryId kTop = UINT32_MAX - 1;
  Rng rng(20261019);
  int bitmap_days = 0, fallback_days = 0, hits = 0, misses = 0;
  for (int q = 0; q < 200; ++q) {
    std::vector<std::vector<TrajectoryId>> days(8);
    for (auto& day : days) {
      std::vector<TrajectoryId> ids;
      switch (rng.UniformInt(0, 5)) {
        case 0:  // empty
          break;
        case 1:  // one id, sometimes at either end of the id space
          ids = {rng.Chance(0.3)   ? 0
                 : rng.Chance(0.3) ? kTop
                                      : static_cast<TrajectoryId>(
                                            rng.UniformInt(0, 100000))};
          break;
        case 2: {  // dense, narrow
          const auto lo = static_cast<TrajectoryId>(rng.UniformInt(0, 5000));
          const auto n = rng.UniformInt(2, 300);
          for (int64_t k = 0; k < n; ++k) {
            ids.push_back(lo + static_cast<TrajectoryId>(
                                   rng.UniformInt(0, 2000)));
          }
          break;
        }
        case 3: {  // sparse over the bench's id range (a bitmap)
          const auto n = rng.UniformInt(1, 600);
          for (int64_t k = 0; k < n; ++k) {
            ids.push_back(static_cast<TrajectoryId>(rng.UniformInt(0, 13000)));
          }
          break;
        }
        default: {  // too wide for a bitmap: galloping fallback
          const auto n = rng.UniformInt(2, 600);
          for (int64_t k = 0; k < n; ++k) {
            ids.push_back(static_cast<TrajectoryId>(
                rng.UniformInt(0, 3 * StartIdSets::kMaxBitmapWords * 64)));
          }
          ids.push_back(rng.Chance(0.5) ? kTop : 0);
          break;
        }
      }
      day = SortedUnique(std::move(ids));
    }
    const StartIdSets sets(days);
    for (size_t d = 0; d < days.size(); ++d) {
      const std::vector<TrajectoryId>& start = days[d];
      if (!start.empty()) ++(sets.is_bitmap(d) ? bitmap_days : fallback_days);
      for (int l = 0; l < 8; ++l) {
        std::vector<TrajectoryId> list;
        const auto n = rng.UniformInt(0, 40);
        for (int64_t k = 0; k < n; ++k) {
          if (!start.empty() && rng.Chance(0.3)) {
            // At or next to a start id, often the min or the max.
            TrajectoryId id = rng.Chance(0.3)   ? start.front()
                              : rng.Chance(0.3) ? start.back()
                                                   : start[rng.UniformInt(
                                                         0, start.size() - 1)];
            const auto nudge = rng.UniformInt(-1, 1);
            if (rng.Chance(0.5) && !(nudge < 0 && id == 0) &&
                !(nudge > 0 && id == UINT32_MAX)) {
              id += static_cast<TrajectoryId>(nudge);
            }
            list.push_back(id);
          } else if (rng.Chance(0.1)) {
            list.push_back(rng.Chance(0.5) ? 0 : kTop);
          } else {
            list.push_back(static_cast<TrajectoryId>(
                rng.UniformInt(0, 2 * StartIdSets::kMaxBitmapWords * 64)));
          }
        }
        list = SortedUnique(std::move(list));
        const bool want = SortedIntersects(start, list);
        EXPECT_EQ(ProbeHits(sets, d, start, list), want)
            << "query " << q << " day " << d << " list " << l;
        ++(want ? hits : misses);
      }
    }
  }
  EXPECT_GT(bitmap_days, 300);
  EXPECT_GT(fallback_days, 200);
  EXPECT_GT(hits, 2000);
  EXPECT_GT(misses, 2000);
}

TEST(StartIdSetsTest, EveryCellOfSharedDatasetMarksAsReferenceWalk) {
  // Every (segment, slot) of the shared dataset through a one-slot window,
  // against ReadTimeList + SortedIntersects: the same day_hit, days_marked
  // and lists_read. Three start shapes: every fourth id (bitmap days), the
  // ids of one busy cell, and the same with a far id added to alternate
  // days so that bitmap and fallback days mix in one query.
  auto& stack = GetSharedStack();
  const StIndex& index = stack.engine->st_index();
  const auto days = static_cast<size_t>(index.num_days());
  TrajectoryId max_id = 0;
  stack.dataset.store->ForEach(
      [&](const MatchedTrajectory& t) { max_id = std::max(max_id, t.id); });
  std::vector<std::vector<TrajectoryId>> quarter(days);
  for (auto& ids : quarter) {
    for (TrajectoryId id = 1; id <= max_id; id += 4) ids.push_back(id);
  }
  TimeList busy;
  size_t busy_ids = 0;
  for (SegmentId seg = 0; seg < stack.dataset.network.NumSegments(); ++seg) {
    for (SlotId slot = 0; slot < index.slots_per_day(); ++slot) {
      if (!index.HasTraffic(seg, slot)) continue;
      auto lists = index.ReadTimeList(seg, slot);
      ASSERT_TRUE(lists.ok()) << lists.status().ToString();
      size_t n = 0;
      for (const auto& day : *lists) n += day.size();
      if (n > busy_ids) {
        busy_ids = n;
        busy = *lists;
      }
    }
  }
  ASSERT_GT(busy_ids, 10u);
  std::vector<std::vector<TrajectoryId>> mixed = busy;
  for (size_t d = 0; d < days; d += 2) mixed[d].push_back(UINT32_MAX - 1);
  const StartIdSets mixed_sets(mixed);
  bool has_bitmap = false, has_fallback = false;
  for (size_t d = 0; d < days; ++d) {
    if (mixed_sets.empty(d)) continue;
    (mixed_sets.is_bitmap(d) ? has_bitmap : has_fallback) = true;
  }
  ASSERT_TRUE(has_bitmap && has_fallback);

  uint64_t lists_read = 0, marked = 0;
  for (const auto* start : {&quarter, &busy, &mixed}) {
    const StartIdSets sets(*start);
    for (SegmentId seg = 0; seg < stack.dataset.network.NumSegments();
         ++seg) {
      for (SlotId slot = 0; slot < index.slots_per_day(); ++slot) {
        std::vector<uint8_t> want(days, 0), got(days, 0);
        auto ref = ReferenceRowHits(index, seg, slot, slot, *start, &want);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        PostingStore::Window window = index.TimeListWindow(slot, slot);
        auto marks = index.MarkDaysIntersecting(seg, &window, sets, &got,
                                                index.num_days());
        ASSERT_TRUE(marks.ok()) << marks.status().ToString();
        ASSERT_EQ(got, want) << seg << "/" << slot;
        ASSERT_EQ(marks->days_marked, std::count(want.begin(), want.end(), 1))
            << seg << "/" << slot;
        ASSERT_EQ(marks->lists_read, *ref) << seg << "/" << slot;
        lists_read += marks->lists_read;
        marked += static_cast<uint64_t>(marks->days_marked);
      }
    }
  }
  EXPECT_GT(lists_read, 3000u);
  EXPECT_GT(marked, 1000u);
}

// --- Window reads ------------------------------------------------------------

/// Hand-built index over a 3-segment chain, 4 days, 64-byte pages, so a
/// few lists fill a page. Segment 0 has lists at slots 96-101 except 98,
/// slot s carrying s - 94 ids per day: several lists share a page and some
/// straddle a page boundary. Segment 1 has no traffic. Segment 2 has a list
/// at slot 97 (day 0 only), which lies between segment 0's lists at slots
/// 97 and 99, one at 286 (day 1 only) and one at 287, the grid's last cell.
class WindowReadTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPageSize = 64;
  static constexpr SegmentId kLast = 2;

  void SetUp() override {
    net_ = testing_util::MakeChainNetwork(3, 300.0);
    ASSERT_EQ(net_.NumSegments(), kLast + 1);
    TrajectoryStore store(4);
    TrajectoryId id = 0;
    auto add = [&](SegmentId seg, SlotId slot, int day) {
      MatchedTrajectory t;
      t.id = id++;
      t.taxi = t.id;
      t.day = day;
      t.samples = {{seg, MakeTimestamp(day, slot * 300 + 10), 10.0f}};
      ids_[{seg, slot}].resize(4);
      ids_[{seg, slot}][day].push_back(t.id);
      ASSERT_TRUE(store.Add(std::move(t)).ok());
    };
    for (SlotId slot : {96, 97, 99, 100, 101}) {
      for (int day = 0; day < 4; ++day) {
        for (int k = 0; k < slot - 94; ++k) add(0, slot, day);
      }
    }
    add(kLast, 97, 0);
    add(kLast, 286, 1);
    for (int day = 0; day < 4; ++day) add(kLast, 287, day);

    StIndexOptions opt;
    opt.posting_path = MakeTempDir("window_read") + "/postings.bin";
    opt.page_size = kPageSize;
    auto index = StIndex::Build(net_, store, opt);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
    blobs_ = PostingExtents(ReadWholeFile(opt.posting_path), kPageSize);
  }

  /// Verifies `seg` through `window`; returns the page requests it made.
  uint64_t Verify(PostingStore::Window* window, SegmentId seg,
                  const std::vector<std::vector<TrajectoryId>>& start,
                  StIndex::SegmentMarks* marks) {
    std::vector<uint8_t> hit(4, 0);
    const uint64_t before = index_->storage_stats().TotalRequests();
    auto got = index_->MarkDaysIntersecting(seg, window, StartIdSets(start),
                                            &hit, index_->num_days());
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (got.ok()) *marks = *got;
    return index_->storage_stats().TotalRequests() - before;
  }

  /// Pages requested by one segment's verification through a fresh window
  /// over [first, last] on a dropped pool.
  StorageStats Verify(SegmentId seg, SlotId first, SlotId last,
                      const std::vector<std::vector<TrajectoryId>>& start,
                      StIndex::SegmentMarks* marks) {
    index_->DropCache();
    index_->ResetStorageStats();
    PostingStore::Window window = index_->TimeListWindow(first, last);
    Verify(&window, seg, start, marks);
    return index_->storage_stats();
  }

  size_t Pages(SegmentId seg, SlotId first, SlotId last) const {
    return RowPages(blobs_, kPageSize, seg, first, last).size();
  }

  RoadNetwork net_;
  std::unique_ptr<StIndex> index_;
  std::vector<BlobExtent> blobs_;
  std::map<std::pair<SegmentId, SlotId>, TimeList> ids_;
};

/// Start ids that match no list, so a verification reads to its end.
const std::vector<std::vector<TrajectoryId>> kNoMatch = {
    {999999}, {999999}, {999999}, {999999}};

TEST_F(WindowReadTest, OneRequestPerDistinctPageSameMissesAsPerSlotReads) {
  // The layout this test is about: lists sharing a page, one straddling.
  int straddling = 0;
  for (SlotId slot = 96; slot <= 101; ++slot) {
    if (Pages(0, slot, slot) > 1) ++straddling;
  }
  ASSERT_GT(straddling, 0);
  const size_t row_pages = Pages(0, 96, 101);
  ASSERT_LT(row_pages, static_cast<size_t>(5 + straddling));

  // Per-slot reads on a dropped pool: each list requests its own pages.
  index_->DropCache();
  index_->ResetStorageStats();
  for (SlotId slot = 96; slot <= 101; ++slot) {
    ASSERT_TRUE(index_->ReadTimeList(0, slot).ok());
  }
  const StorageStats per_slot = index_->storage_stats();

  StIndex::SegmentMarks marks;
  const StorageStats row = Verify(0, 96, 101, kNoMatch, &marks);
  EXPECT_EQ(marks.lists_read, 5u);
  EXPECT_EQ(marks.days_marked, 0);
  EXPECT_EQ(row.TotalRequests(), row_pages);
  EXPECT_EQ(row.cache_hits, 0u);
  EXPECT_EQ(row.cache_misses, per_slot.cache_misses);
  EXPECT_EQ(row.disk_page_reads, per_slot.disk_page_reads);
  EXPECT_EQ(row.evictions, per_slot.evictions);
  EXPECT_GT(per_slot.TotalRequests(), row.TotalRequests());
}

TEST_F(WindowReadTest, OneWindowSharesPagesAcrossSegmentsAndVerifications) {
  // Segment 2's list at slot 97 sits on pages segment 0's lists also use.
  std::set<uint64_t> pages = RowPages(blobs_, kPageSize, 0, 96, 101);
  const std::set<uint64_t> seg2 = RowPages(blobs_, kPageSize, kLast, 96, 101);
  ASSERT_EQ(seg2.size(), 1u);
  pages.insert(seg2.begin(), seg2.end());
  ASSERT_EQ(pages.size(), Pages(0, 96, 101));

  index_->DropCache();
  index_->ResetStorageStats();
  PostingStore::Window window = index_->TimeListWindow(96, 101);
  StIndex::SegmentMarks marks;
  EXPECT_EQ(Verify(&window, 0, kNoMatch, &marks), pages.size());
  EXPECT_EQ(marks.lists_read, 5u);
  // Segment 2 and a second verification of segment 0 cost no request.
  EXPECT_EQ(Verify(&window, kLast, ids_[{kLast, 97}], &marks), 0u);
  EXPECT_EQ(marks.lists_read, 1u);
  EXPECT_EQ(marks.days_marked, 1);
  EXPECT_EQ(Verify(&window, 0, ids_[{0, 101}], &marks), 0u);
  EXPECT_EQ(marks.lists_read, 5u);
  EXPECT_EQ(marks.days_marked, 4);
  EXPECT_EQ(index_->storage_stats().cache_hits, 0u);
  EXPECT_EQ(window.pages_buffered(), pages.size());
}

TEST_F(WindowReadTest, EarlyExitLeavesTrailingPagesUnrequested) {
  // Slot 96's ids mark every day, so the walk stops after its list.
  StIndex::SegmentMarks marks;
  const StorageStats row = Verify(0, 96, 101, ids_[{0, 96}], &marks);
  EXPECT_EQ(marks.days_marked, 4);
  EXPECT_EQ(marks.lists_read, 1u);
  EXPECT_EQ(row.TotalRequests(), Pages(0, 96, 96));
  EXPECT_LT(row.TotalRequests(), Pages(0, 96, 101));
}

TEST_F(WindowReadTest, AllAbsentSegmentMakesNoRequests) {
  StIndex::SegmentMarks marks;
  const StorageStats row =
      Verify(1, 0, index_->slots_per_day() - 1, ids_[{0, 96}], &marks);
  EXPECT_EQ(row.TotalRequests(), 0u);
  EXPECT_EQ(marks.lists_read, 0u);
  EXPECT_EQ(marks.days_marked, 0);
}

TEST_F(WindowReadTest, GridsLastCellReadsCorrectly) {
  // Its extent ends at the directory's sentinel offset.
  ASSERT_EQ(blobs_.back().key, MakePostingKey(kLast, 287));
  auto lists = index_->ReadTimeList(kLast, 287);
  ASSERT_TRUE(lists.ok()) << lists.status().ToString();
  EXPECT_EQ(*lists, (ids_[{kLast, 287}]));

  StIndex::SegmentMarks marks;
  const StorageStats row =
      Verify(kLast, 280, 287, ids_[{kLast, 287}], &marks);
  EXPECT_EQ(marks.lists_read, 2u);  // 286 marks nothing, 287 every day
  EXPECT_EQ(marks.days_marked, 4);
  EXPECT_EQ(row.TotalRequests(), Pages(kLast, 280, 287));
}

TEST(WindowCapTest, CappedWindowMarksAsUncappedReads) {
  // 256-byte pages make the shared dataset's posting file span far more
  // pages than one window buffers, so a whole-day window fills its buffer
  // and reads the rest uncached.
  auto& stack = GetSharedStack();
  StIndexOptions opt;
  opt.posting_path = MakeTempDir("st_cap") + "/postings.bin";
  opt.page_size = 256;
  opt.cache_pages = 64;
  auto built =
      StIndex::Build(stack.dataset.network, *stack.dataset.store, opt);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const StIndex& index = **built;
  const std::vector<BlobExtent> blobs =
      PostingExtents(ReadWholeFile(opt.posting_path), opt.page_size);
  ASSERT_GT(blobs.back().file_offset / opt.page_size,
            2 * PostingStore::Window::kMaxPages);

  // Each day's start ids: every fifth trajectory id.
  TrajectoryId max_id = 0;
  stack.dataset.store->ForEach(
      [&](const MatchedTrajectory& t) { max_id = std::max(max_id, t.id); });
  std::vector<std::vector<TrajectoryId>> start(index.num_days());
  for (auto& ids : start) {
    for (TrajectoryId id = 0; id <= max_id; id += 5) ids.push_back(id);
  }
  const StartIdSets start_sets(start);
  const SlotId last = index.slots_per_day() - 1;
  PostingStore::Window window = index.TimeListWindow(0, last);
  uint64_t lists = 0;
  for (SegmentId seg = 0; seg < stack.dataset.network.NumSegments();
       seg += 7) {
    std::vector<uint8_t> want(start.size(), 0), got(start.size(), 0);
    auto ref = ReferenceRowHits(index, seg, 0, last, start, &want);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    auto marks = index.MarkDaysIntersecting(seg, &window, start_sets, &got,
                                            index.num_days());
    ASSERT_TRUE(marks.ok()) << marks.status().ToString();
    EXPECT_EQ(got, want) << seg;
    EXPECT_EQ(marks->lists_read, *ref) << seg;
    ASSERT_LE(window.pages_buffered(), PostingStore::Window::kMaxPages);
    lists += marks->lists_read;
  }
  EXPECT_EQ(window.pages_buffered(), PostingStore::Window::kMaxPages);
  EXPECT_GT(lists, 1000u);
}

// --- ConIndex ----------------------------------------------------------------

class ConIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = MakeGridNetwork(4, 4, 300.0);
    store_ = TinyStore();
    auto profile = SpeedProfile::Build(net_, *store_);
    ASSERT_TRUE(profile.ok());
    profile_ = std::make_unique<SpeedProfile>(std::move(*profile));
    ConIndexOptions opt;
    opt.delta_t_seconds = 120;
    auto con = ConIndex::Create(net_, *profile_, opt);
    ASSERT_TRUE(con.ok());
    con_ = std::move(*con);
  }

  RoadNetwork net_;
  std::unique_ptr<TrajectoryStore> store_;
  std::unique_ptr<SpeedProfile> profile_;
  std::unique_ptr<ConIndex> con_;
};

TEST_F(ConIndexTest, NearIsSubsetOfFar) {
  for (SegmentId seg = 0; seg < net_.NumSegments(); seg += 3) {
    const auto& near = con_->Near(seg, HMS(8));
    const auto& far = con_->Far(seg, HMS(8));
    EXPECT_TRUE(std::includes(far.begin(), far.end(), near.begin(), near.end()))
        << "Near not within Far for segment " << seg;
  }
}

TEST_F(ConIndexTest, ListsMatchDirectExpansion) {
  SegmentId seg = 5;
  const auto& far = con_->Far(seg, HMS(8));
  SpeedFn max_speed = [this](SegmentId id) {
    return profile_->MaxSpeed(id, HMS(8));
  };
  auto hits = ExpandFrom(net_, seg, 120.0, max_speed);
  std::vector<SegmentId> expected;
  for (const auto& h : hits) expected.push_back(h.segment);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(far, expected);
}

TEST_F(ConIndexTest, ContainsSelfWhenTraversable) {
  const auto& far = con_->Far(0, HMS(8));
  EXPECT_TRUE(std::binary_search(far.begin(), far.end(), 0u));
}

TEST_F(ConIndexTest, LazyMaterializationCounts) {
  EXPECT_EQ(con_->MaterializedTables(), 0u);
  con_->Far(0, HMS(8));
  EXPECT_EQ(con_->MaterializedTables(), 1u);
  con_->Near(0, HMS(8));  // same (seg, slot) table
  EXPECT_EQ(con_->MaterializedTables(), 1u);
  con_->Far(1, HMS(8));
  EXPECT_EQ(con_->MaterializedTables(), 2u);
  con_->Far(0, HMS(9));  // different profile slot
  EXPECT_EQ(con_->MaterializedTables(), 3u);
}

TEST_F(ConIndexTest, LargerDeltaTReachesFurther) {
  ConIndexOptions big;
  big.delta_t_seconds = 360;
  auto con_big = ConIndex::Create(net_, *profile_, big);
  ASSERT_TRUE(con_big.ok());
  const auto& small_far = con_->Far(0, HMS(8));
  const auto& big_far = (*con_big)->Far(0, HMS(8));
  EXPECT_GE(big_far.size(), small_far.size());
  EXPECT_TRUE(std::includes(big_far.begin(), big_far.end(), small_far.begin(),
                            small_far.end()));
}

TEST_F(ConIndexTest, CongestionShrinksRushHourFar) {
  // Shared dataset has genuine rush-hour slowdowns; the tiny fixture does
  // not, so use the engine's con-index.
  auto& stack = GetSharedStack();
  const ConIndex& con = stack.engine->con_index();
  const RoadNetwork& net = stack.engine->network();
  size_t rush_total = 0, night_total = 0;
  for (SegmentId seg = 0; seg < net.NumSegments(); seg += 29) {
    rush_total += con.Far(seg, HMS(8)).size();
    night_total += con.Far(seg, HMS(13)).size();
  }
  EXPECT_LT(rush_total, night_total);
}

TEST_F(ConIndexTest, CreateValidation) {
  ConIndexOptions opt;
  opt.delta_t_seconds = 0;
  EXPECT_TRUE(
      ConIndex::Create(net_, *profile_, opt).status().IsInvalidArgument());
}

}  // namespace
}  // namespace strr
