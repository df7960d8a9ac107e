// Tests for the query layer: probability (Eq. 3.1), SQMB/MQMB bounding
// regions, TBS, and the ES baseline — validated against brute-force
// recomputation from the trajectory store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "query/bounding_region.h"
#include "query/es_baseline.h"
#include "query/probability.h"
#include "query/trace_back.h"
#include "tests/test_util.h"

namespace strr {
namespace {

using testing_util::GetSharedStack;
using testing_util::MakeGridNetwork;
using testing_util::SortedIntersects;

// --- SortedIntersects --------------------------------------------------------

TEST(SortedIntersectsTest, Basics) {
  EXPECT_TRUE(SortedIntersects({1, 3, 5}, {5, 7}));
  EXPECT_TRUE(SortedIntersects({5}, {1, 2, 5}));
  EXPECT_FALSE(SortedIntersects({1, 3}, {2, 4}));
  EXPECT_FALSE(SortedIntersects({}, {1}));
  EXPECT_FALSE(SortedIntersects({}, {}));
  EXPECT_TRUE(SortedIntersects({2, 2, 2}, {2}));
}

// --- Probability (Eq. 3.1) vs brute force ------------------------------------

/// Brute-force probability straight from the matched store: fraction of
/// days with a trajectory passing `start` in [T, T+window) and `target`
/// in [T, T+duration].
double BruteForceProbability(const TrajectoryStore& store, SegmentId start,
                             SegmentId target, int64_t T, int64_t window,
                             int64_t duration) {
  int hits = 0;
  for (DayIndex d = 0; d < store.num_days(); ++d) {
    std::set<TrajectoryId> from_start, at_target;
    for (const MatchedTrajectory& t : store.TrajectoriesOnDay(d)) {
      for (const MatchedSample& s : t.samples) {
        int64_t tod = TimeOfDay(s.timestamp);
        if (s.segment == start && tod >= T && tod < T + window) {
          from_start.insert(t.id);
        }
        if (s.segment == target && tod >= T && tod <= T + duration) {
          at_target.insert(t.id);
        }
      }
    }
    for (TrajectoryId id : from_start) {
      if (at_target.count(id)) {
        ++hits;
        break;
      }
    }
  }
  return store.num_days() > 0 ? static_cast<double>(hits) / store.num_days()
                              : 0.0;
}

TEST(ProbabilityTest, MatchesBruteForceOnSharedDataset) {
  auto& stack = GetSharedStack();
  const StIndex& index = stack.engine->st_index();
  const TrajectoryStore& store = *stack.dataset.store;
  const int64_t T = HMS(11);
  const int64_t delta_t = index.slot_seconds();
  const int64_t L = 600;

  // Pick a start segment with traffic at 11:00.
  SegmentId start = kInvalidSegment;
  SlotId slot = index.SlotForTime(T);
  for (SegmentId s = 0; s < index.network().NumSegments(); ++s) {
    if (index.HasTraffic(s, slot)) {
      start = s;
      break;
    }
  }
  ASSERT_NE(start, kInvalidSegment) << "dataset has no 11:00 traffic";

  auto oracle =
      ReachabilityProbability::Create(index, {start}, T, delta_t, L);
  ASSERT_TRUE(oracle.ok());
  // Note: the ST-Index quantizes the start window and the duration to Δt
  // slots, so compare against a brute force using slot-aligned boundaries.
  int64_t t_aligned = (T / delta_t) * delta_t;
  int64_t end_slot_aligned =
      ((T + L - 1) / delta_t + 1) * delta_t - 1;  // end of last covered slot
  int checked = 0;
  for (SegmentId target = 0; target < index.network().NumSegments();
       target += 17) {
    auto p = oracle->Probability(target);
    ASSERT_TRUE(p.ok());
    double expected =
        BruteForceProbability(store, start, target, t_aligned, delta_t,
                              end_slot_aligned - t_aligned);
    EXPECT_NEAR(*p, expected, 1e-9) << "target " << target;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

/// Start side of Eq. 3.1 built from materialised time lists: the sorted,
/// de-duplicated ids leaving any of `starts` in [T, T + window), per day.
StatusOr<std::vector<std::vector<TrajectoryId>>> ReferenceStartIds(
    const StIndex& index, const std::vector<SegmentId>& starts, int64_t T,
    int64_t window) {
  std::vector<std::vector<TrajectoryId>> ids(index.num_days());
  for (SegmentId s : starts) {
    for (SlotId slot : index.SlotsCovering(T, T + window)) {
      STRR_ASSIGN_OR_RETURN(TimeList lists, index.ReadTimeList(s, slot));
      for (size_t d = 0; d < ids.size(); ++d) {
        ids[d].insert(ids[d].end(), lists[d].begin(), lists[d].end());
      }
    }
  }
  for (auto& day : ids) {
    std::sort(day.begin(), day.end());
    day.erase(std::unique(day.begin(), day.end()), day.end());
  }
  return ids;
}

/// Probability(r) the materialised way: ReadTimeList per duration slot,
/// then SortedIntersects per day.
StatusOr<double> ReferenceProbability(
    const StIndex& index, const std::vector<std::vector<TrajectoryId>>& start,
    SegmentId r, int64_t T, int64_t duration) {
  if (index.num_days() == 0) return 0.0;
  std::vector<bool> hit(start.size(), false);
  int hits = 0;
  for (SlotId slot : index.SlotsCovering(T, T + duration)) {
    STRR_ASSIGN_OR_RETURN(TimeList lists, index.ReadTimeList(r, slot));
    for (size_t d = 0; d < start.size(); ++d) {
      if (!hit[d] && SortedIntersects(start[d], lists[d])) {
        hit[d] = true;
        ++hits;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(index.num_days());
}

/// The time lists Probability(r) reads, walked the long way: one per
/// duration slot that HasTraffic reports, stopping once every day with
/// start ids is hit (no other day can be).
StatusOr<uint64_t> ReferenceListsRead(
    const StIndex& index, const std::vector<std::vector<TrajectoryId>>& start,
    SegmentId r, int64_t T, int64_t duration) {
  int active_days = 0;
  for (const auto& ids : start) active_days += !ids.empty();
  if (index.num_days() == 0 || active_days == 0) return 0;
  std::vector<bool> hit(start.size(), false);
  int hits = 0;
  uint64_t reads = 0;
  for (SlotId slot : index.SlotsCovering(T, T + duration)) {
    if (!index.HasTraffic(r, slot)) continue;
    ++reads;
    STRR_ASSIGN_OR_RETURN(TimeList lists, index.ReadTimeList(r, slot));
    for (size_t d = 0; d < start.size(); ++d) {
      if (!hit[d] && SortedIntersects(start[d], lists[d])) {
        hit[d] = true;
        ++hits;
      }
    }
    if (hits == active_days) break;
  }
  return reads;
}

TEST(ProbabilityTest, StreamingCheckMatchesMaterialisedReference) {
  auto& stack = GetSharedStack();
  const RoadNetwork& net = stack.dataset.network;
  int nonzero = 0;
  for (int64_t delta_t : {300, 600, 900}) {
    StIndexOptions opt;
    opt.slot_seconds = delta_t;
    opt.posting_path =
        testing_util::MakeTempDir("stream_oracle") + "/postings.bin";
    opt.cache_pages = 256;
    auto built = StIndex::Build(net, *stack.dataset.store, opt);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const StIndex& index = **built;
    for (int64_t T : {HMS(8), HMS(11, 7), HMS(17, 45)}) {
      // Starts: two segments with traffic in the start slot, and both
      // together (the m-query union).
      std::vector<SegmentId> busy;
      const SlotId start_slot = index.SlotForTime(T);
      for (SegmentId s = 0; s < net.NumSegments(); ++s) {
        if (index.HasTraffic(s, start_slot)) busy.push_back(s);
      }
      ASSERT_GE(busy.size(), 2u) << "Δt " << delta_t << " T " << T;
      const SegmentId a = busy.front(), b = busy[busy.size() / 2];
      for (const std::vector<SegmentId>& starts :
           std::vector<std::vector<SegmentId>>{{a}, {b}, {a, b}}) {
        auto start_ids = ReferenceStartIds(index, starts, T, delta_t);
        ASSERT_TRUE(start_ids.ok());
        for (int64_t L : {300, 1200, 2700}) {
          auto oracle =
              ReachabilityProbability::Create(index, starts, T, delta_t, L);
          ASSERT_TRUE(oracle.ok());
          // The start side reads every start slot of every start.
          uint64_t want_reads =
              starts.size() * index.SlotsCovering(T, T + delta_t).size();
          EXPECT_EQ(oracle->time_lists_read(), want_reads);
          for (SegmentId r = 0; r < net.NumSegments(); ++r) {
            auto got = oracle->Probability(r);
            auto want = ReferenceProbability(index, *start_ids, r, T, L);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_TRUE(want.ok()) << want.status().ToString();
            EXPECT_EQ(*got, *want) << "Δt " << delta_t << " T " << T << " L "
                                   << L << " r " << r;
            if (*got > 0) ++nonzero;
            auto reads = ReferenceListsRead(index, *start_ids, r, T, L);
            ASSERT_TRUE(reads.ok()) << reads.status().ToString();
            want_reads += *reads;
          }
          EXPECT_EQ(oracle->time_lists_read(), want_reads) << "L " << L;
        }
      }
    }
  }
  EXPECT_GT(nonzero, 100);
}

TEST(ProbabilityTest, ReachesMatchesProbabilityAtEveryThreshold) {
  auto& stack = GetSharedStack();
  const StIndex& index = stack.engine->st_index();
  const RoadNetwork& net = index.network();
  const int m = index.num_days();
  ASSERT_GT(m, 1);
  // Every k / m with its neighbours either side, and a 0.05 sweep.
  std::vector<double> thresholds;
  for (int k = 0; k <= m; ++k) {
    const double at = static_cast<double>(k) / m;
    thresholds.insert(thresholds.end(), {std::nextafter(at, 0.0), at,
                                         std::nextafter(at, 2.0)});
  }
  for (int i = 1; i <= 20; ++i) thresholds.push_back(0.05 * i);
  int nonzero = 0, cheaper = 0;
  for (int64_t T : {HMS(8), HMS(17, 45)}) {
    std::vector<SegmentId> busy;
    for (SegmentId s = 0; s < net.NumSegments(); ++s) {
      if (index.HasTraffic(s, index.SlotForTime(T))) busy.push_back(s);
    }
    ASSERT_FALSE(busy.empty());
    const std::vector<SegmentId> starts = {busy[busy.size() / 2]};
    for (int64_t L : {600, 1800}) {
      auto oracle = ReachabilityProbability::Create(
          index, starts, T, index.slot_seconds(), L);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      for (SegmentId r = 0; r < net.NumSegments(); ++r) {
        uint64_t before = oracle->time_lists_read();
        auto p = oracle->Probability(r);
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        const uint64_t exact_reads = oracle->time_lists_read() - before;
        if (*p > 0) ++nonzero;
        for (double prob : thresholds) {
          before = oracle->time_lists_read();
          auto reaches = oracle->Reaches(r, prob);
          ASSERT_TRUE(reaches.ok()) << reaches.status().ToString();
          const uint64_t reads = oracle->time_lists_read() - before;
          EXPECT_EQ(*reaches, *p >= prob)
              << "T " << T << " L " << L << " r " << r << " prob " << prob;
          EXPECT_LE(reads, exact_reads) << "r " << r << " prob " << prob;
          if (reads < exact_reads) ++cheaper;
        }
      }
    }
  }
  EXPECT_GT(nonzero, 50);
  EXPECT_GT(cheaper, 0);
}

TEST(ProbabilityTest, ReachesReadsNothingWhenStartHasTooFewDays) {
  // Three days. Two trajectories leave segment 0 at 08:00 on day 0 and
  // reach segment 1 a minute later; on day 2 segment 1 has traffic that
  // did not come from the start.
  RoadNetwork net = testing_util::MakeChainNetwork(2);
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
  for (TrajectoryId id : {0u, 1u}) {
    add(id, 0,
        {{0, MakeTimestamp(0, HMS(8)), 10.0f},
         {1, MakeTimestamp(0, HMS(8, 1)), 10.0f}});
  }
  add(2, 2, {{1, MakeTimestamp(2, HMS(8, 1)), 10.0f}});
  StIndexOptions opt;
  opt.posting_path =
      testing_util::MakeTempDir("reaches_few") + "/postings.bin";
  auto index = StIndex::Build(net, store, opt);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto oracle =
      ReachabilityProbability::Create(**index, {0}, HMS(8), 300, 600);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_DOUBLE_EQ(*oracle->Probability(1), 1.0 / 3);

  // Prob 0.5 needs two days; the start is active on one, so no list is
  // read.
  uint64_t before = oracle->time_lists_read();
  auto two_days = oracle->Reaches(1, 0.5);
  ASSERT_TRUE(two_days.ok());
  EXPECT_FALSE(*two_days);
  EXPECT_EQ(oracle->time_lists_read(), before);
  // One day is within reach: one list read settles it.
  auto one_day = oracle->Reaches(1, 1.0 / 3);
  ASSERT_TRUE(one_day.ok());
  EXPECT_TRUE(*one_day);
  EXPECT_EQ(oracle->time_lists_read(), before + 1);
}

TEST(ProbabilityTest, StartWithNoTrafficGivesZero) {
  auto& stack = GetSharedStack();
  const StIndex& index = stack.engine->st_index();
  // 03:30 in a quiet corner: find a segment with no traffic.
  SlotId slot = index.SlotForTime(HMS(3, 30));
  SegmentId quiet = kInvalidSegment;
  for (SegmentId s = 0; s < index.network().NumSegments(); ++s) {
    if (!index.HasTraffic(s, slot)) {
      quiet = s;
      break;
    }
  }
  ASSERT_NE(quiet, kInvalidSegment);
  auto oracle = ReachabilityProbability::Create(index, {quiet}, HMS(3, 30),
                                                index.slot_seconds(), 600);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(oracle->StartHasNoTraffic());
  auto p = oracle->Probability(0);
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(*p, 0.0);
}

TEST(ProbabilityTest, CreateValidation) {
  auto& stack = GetSharedStack();
  const StIndex& index = stack.engine->st_index();
  EXPECT_FALSE(
      ReachabilityProbability::Create(index, {}, HMS(10), 300, 600).ok());
  EXPECT_FALSE(
      ReachabilityProbability::Create(index, {0}, HMS(10), 0, 600).ok());
  EXPECT_FALSE(
      ReachabilityProbability::Create(index, {0}, HMS(10), 300, -5).ok());
}

// --- RegionBoundary ----------------------------------------------------------

TEST(RegionBoundaryTest, InteriorExcluded) {
  RoadNetwork net = MakeGridNetwork(5, 5, 100.0);
  // Region = every segment: no outside neighbours, boundary empty.
  std::vector<SegmentId> all;
  for (SegmentId s = 0; s < net.NumSegments(); ++s) all.push_back(s);
  EXPECT_TRUE(RegionBoundary(net, all).empty());
}

TEST(RegionBoundaryTest, PartialRegionHasBoundary) {
  RoadNetwork net = MakeGridNetwork(7, 7, 100.0);
  // Region: every segment fully inside the [100, 500]^2 window — a 5x5
  // sub-grid whose central segments are interior (all neighbours inside).
  std::vector<SegmentId> region;
  for (const RoadSegment& seg : net.segments()) {
    const Mbr& box = seg.bounding_box();
    if (box.min_x() >= 99.0 && box.max_x() <= 501.0 && box.min_y() >= 99.0 &&
        box.max_y() <= 501.0) {
      region.push_back(seg.id);
    }
  }
  ASSERT_GT(region.size(), 20u);
  auto boundary = RegionBoundary(net, region);
  EXPECT_FALSE(boundary.empty());
  EXPECT_LT(boundary.size(), region.size());
  // Every boundary member is in the region and has an outside neighbour.
  std::set<SegmentId> in(region.begin(), region.end());
  for (SegmentId b : boundary) {
    EXPECT_TRUE(in.count(b));
    bool outside = false;
    for (SegmentId nb : net.NeighborsOf(b)) {
      if (!in.count(nb)) outside = true;
    }
    EXPECT_TRUE(outside);
  }
}

// --- SQMB --------------------------------------------------------------------

class SqmbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& stack = GetSharedStack();
    engine_ = stack.engine.get();
    net_ = &engine_->network();
    auto start = engine_->st_index().LocateSegment(stack.dataset.center);
    ASSERT_TRUE(start.ok());
    start_ = *start;
  }

  ReachabilityEngine* engine_;
  const RoadNetwork* net_;
  SegmentId start_;
};

TEST_F(SqmbTest, MinRegionInsideMaxRegion) {
  auto regions = SqmbSearch(*net_, engine_->con_index(), start_, HMS(11), 600);
  ASSERT_TRUE(regions.ok());
  EXPECT_FALSE(regions->max_region.empty());
  EXPECT_FALSE(regions->min_region.empty());
  EXPECT_TRUE(std::includes(regions->max_region.begin(),
                            regions->max_region.end(),
                            regions->min_region.begin(),
                            regions->min_region.end()));
}

TEST_F(SqmbTest, StartInsideBothRegions) {
  auto regions = SqmbSearch(*net_, engine_->con_index(), start_, HMS(11), 600);
  ASSERT_TRUE(regions.ok());
  EXPECT_TRUE(std::binary_search(regions->max_region.begin(),
                                 regions->max_region.end(), start_));
  EXPECT_TRUE(std::binary_search(regions->min_region.begin(),
                                 regions->min_region.end(), start_));
}

TEST_F(SqmbTest, MonotoneInDuration) {
  auto small = SqmbSearch(*net_, engine_->con_index(), start_, HMS(11), 300);
  auto large = SqmbSearch(*net_, engine_->con_index(), start_, HMS(11), 1200);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->max_region.size(), small->max_region.size());
  EXPECT_TRUE(std::includes(large->max_region.begin(), large->max_region.end(),
                            small->max_region.begin(),
                            small->max_region.end()));
}

TEST_F(SqmbTest, BoundarySeedsAreValid) {
  auto regions = SqmbSearch(*net_, engine_->con_index(), start_, HMS(11), 600);
  ASSERT_TRUE(regions.ok());
  // The TBS seed set is always inside the max region.
  EXPECT_TRUE(std::includes(regions->max_region.begin(),
                            regions->max_region.end(),
                            regions->boundary.begin(),
                            regions->boundary.end()));
  // When the cone has a geometric edge, the seed IS that edge; otherwise
  // (cone saturated the network) it falls back to the outermost expansion
  // shell, which is non-empty whenever the region is.
  auto geometric = RegionBoundary(*net_, regions->max_region);
  if (!geometric.empty()) {
    EXPECT_EQ(regions->boundary, geometric);
  } else {
    EXPECT_FALSE(regions->boundary.empty());
  }
}

TEST_F(SqmbTest, RushHourRegionSmallerThanMidday) {
  auto rush = SqmbSearch(*net_, engine_->con_index(), start_, HMS(8), 600);
  auto midday = SqmbSearch(*net_, engine_->con_index(), start_, HMS(13), 600);
  ASSERT_TRUE(rush.ok());
  ASSERT_TRUE(midday.ok());
  EXPECT_LT(rush->max_region.size(), midday->max_region.size());
}

TEST_F(SqmbTest, InputValidation) {
  EXPECT_FALSE(SqmbSearch(*net_, engine_->con_index(), kInvalidSegment,
                          HMS(11), 600)
                   .ok());
  EXPECT_FALSE(
      SqmbSearch(*net_, engine_->con_index(), start_, HMS(11), 0).ok());
}

// --- MQMB --------------------------------------------------------------------

TEST_F(SqmbTest, MqmbSingleLocationMatchesSqmbCone) {
  auto s = SqmbSearch(*net_, engine_->con_index(), start_, HMS(10), 600);
  auto m = MqmbSearch(*net_, engine_->con_index(), engine_->speed_profile(),
                      {start_}, HMS(10), 600);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(s->max_region, m->max_region);
  EXPECT_EQ(s->min_region, m->min_region);
}

TEST_F(SqmbTest, MqmbUnionCoversEachStartsNeighbourhood) {
  // Pick a second start well away from the first.
  auto& stack = GetSharedStack();
  Mbr box = net_->BoundingBox();
  auto second = engine_->st_index().LocateSegment(
      {box.min_x() + box.Width() * 0.25, box.min_y() + box.Height() * 0.25});
  ASSERT_TRUE(second.ok());
  auto m = MqmbSearch(*net_, engine_->con_index(), engine_->speed_profile(),
                      {start_, *second}, HMS(10), 600);
  ASSERT_TRUE(m.ok());
  // Both starts present.
  EXPECT_TRUE(std::binary_search(m->max_region.begin(), m->max_region.end(),
                                 start_));
  EXPECT_TRUE(std::binary_search(m->max_region.begin(), m->max_region.end(),
                                 *second));
  // Union at least as large as each single cone.
  auto s1 = SqmbSearch(*net_, engine_->con_index(), start_, HMS(10), 600);
  auto s2 = SqmbSearch(*net_, engine_->con_index(), *second, HMS(10), 600);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_GE(m->max_region.size(),
            std::max(s1->max_region.size(), s2->max_region.size()));
  (void)stack;
}

TEST_F(SqmbTest, MqmbDeduplicatesStarts) {
  auto m = MqmbSearch(*net_, engine_->con_index(), engine_->speed_profile(),
                      {start_, start_, start_}, HMS(10), 600);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->start_segments.size(), 1u);
}

TEST_F(SqmbTest, MqmbValidation) {
  EXPECT_FALSE(MqmbSearch(*net_, engine_->con_index(),
                          engine_->speed_profile(), {}, HMS(10), 600)
                   .ok());
  EXPECT_FALSE(MqmbSearch(*net_, engine_->con_index(),
                          engine_->speed_profile(), {kInvalidSegment}, HMS(10),
                          600)
                   .ok());
}

// --- TBS + ES invariants -----------------------------------------------------

TEST_F(SqmbTest, EsRegionSubsetOfTbsRegion) {
  // Every segment ES verifies as Prob-reachable must appear in the
  // SQMB+TBS region (TBS additionally trusts the unverified interior).
  auto& stack = GetSharedStack();
  SQuery q{stack.dataset.center, HMS(11), 600, 0.3};
  auto indexed = engine_->SQueryIndexed(q);
  auto exhaustive = engine_->SQueryExhaustive(q);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_TRUE(std::includes(
      indexed->segments.begin(), indexed->segments.end(),
      exhaustive->segments.begin(), exhaustive->segments.end()))
      << "ES found a qualifying segment TBS rejected";
}

TEST_F(SqmbTest, TbsVerifiesFewerSegmentsThanEs) {
  auto& stack = GetSharedStack();
  SQuery q{stack.dataset.center, HMS(11), 900, 0.2};
  auto indexed = engine_->SQueryIndexed(q);
  auto exhaustive = engine_->SQueryExhaustive(q);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_LT(indexed->stats.segments_verified,
            exhaustive->stats.segments_verified);
}

TEST_F(SqmbTest, TbsRegionWithinMaxCone) {
  auto regions = SqmbSearch(*net_, engine_->con_index(), start_, HMS(11), 600);
  ASSERT_TRUE(regions.ok());
  auto oracle = ReachabilityProbability::Create(
      engine_->st_index(), regions->start_segments, HMS(11),
      engine_->delta_t_seconds(), 600);
  ASSERT_TRUE(oracle.ok());
  auto tbs = TraceBackSearch(*net_, *regions, 0.2, *oracle);
  ASSERT_TRUE(tbs.ok());
  EXPECT_TRUE(std::includes(regions->max_region.begin(),
                            regions->max_region.end(), tbs->region.begin(),
                            tbs->region.end()));
}

TEST_F(SqmbTest, HigherProbNeverGrowsRegion) {
  auto& stack = GetSharedStack();
  SQuery low{stack.dataset.center, HMS(11), 600, 0.2};
  SQuery high{stack.dataset.center, HMS(11), 600, 0.9};
  auto r_low = engine_->SQueryIndexed(low);
  auto r_high = engine_->SQueryIndexed(high);
  ASSERT_TRUE(r_low.ok());
  ASSERT_TRUE(r_high.ok());
  EXPECT_LE(r_high->total_length_m, r_low->total_length_m);
}

TEST_F(SqmbTest, TbsRejectsBadProb) {
  auto regions = SqmbSearch(*net_, engine_->con_index(), start_, HMS(11), 600);
  ASSERT_TRUE(regions.ok());
  auto oracle = ReachabilityProbability::Create(
      engine_->st_index(), regions->start_segments, HMS(11),
      engine_->delta_t_seconds(), 600);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(TraceBackSearch(*net_, *regions, 0.0, *oracle).ok());
  EXPECT_FALSE(TraceBackSearch(*net_, *regions, 1.5, *oracle).ok());
  EXPECT_FALSE(TraceBackSearch(*net_, *regions,
                               std::numeric_limits<double>::quiet_NaN(),
                               *oracle)
                   .ok());
}

}  // namespace
}  // namespace strr
