#include "index/st_index.h"

#include <algorithm>
#include <string_view>

#include "util/serialize.h"

namespace strr {

namespace {

/// A time-list entry during Build: (day << 32) | trajectory id, so a
/// cell's entries sort by day, then id.
using ListEntry = uint64_t;

/// Encodes one time list from a cell's sorted, duplicate-free entries:
/// varint day count, then per present day: varint day, varint id count,
/// sorted-delta ids (BinaryWriter::PutU32List's format).
void EncodeTimeList(const ListEntry* begin, const ListEntry* end,
                    BinaryWriter* w) {
  uint32_t days = 0;
  for (const ListEntry* e = begin; e != end; ++e) {
    if (e == begin || (*e >> 32) != (e[-1] >> 32)) ++days;
  }
  w->PutVarint32(days);
  for (const ListEntry* e = begin; e != end;) {
    const auto day = static_cast<uint32_t>(*e >> 32);
    const ListEntry* day_end = e;
    while (day_end != end && (*day_end >> 32) == day) ++day_end;
    w->PutVarint32(day);
    w->PutVarint32(static_cast<uint32_t>(day_end - e));
    uint32_t prev = 0;
    for (; e != day_end; ++e) {
      const auto id = static_cast<uint32_t>(*e);
      w->PutVarint32(id - prev);
      prev = id;
    }
  }
}

/// Decodes one LEB128 varint32 at `*p`, advancing it. Returns nullptr on
/// success, else the Corruption message BinaryReader::GetVarint32 gives
/// for the same bytes (a fifth byte's bits above 32 are dropped there too).
inline const char* DecodeVarint32(const uint8_t** p, const uint8_t* end,
                                  uint32_t* value) {
  const uint8_t* q = *p;
  uint32_t result = 0;
  for (int shift = 0; shift <= 28; shift += 7) {
    if (q == end) return "truncated input reading varint32";
    const uint32_t byte = *q++;
    result |= (byte & 0x7f) << shift;
    if (byte < 0x80) {
      *p = q;
      *value = result;
      return nullptr;
    }
  }
  return "varint32 too long";
}

/// The one decoder of EncodeTimeList's format. For each present day it
/// calls visitor.BeginDay(day, count); when that returns true the day's
/// ids follow, delta-decoded, through visitor.Id(id) until it returns
/// false. Ids the visitor declines are still decoded, so every blob is
/// checked in full: a truncated or over-long varint, a day out of range or
/// not after the previous one, and an id count larger than the bytes left
/// are all Corruption. Varints are read by a pointer loop with no Status
/// per value; only a failure builds one.
template <typename Visitor>
Status DecodeTimeList(std::string_view blob, int32_t num_days,
                      Visitor& visitor) {
  const auto* p = reinterpret_cast<const uint8_t*>(blob.data());
  const uint8_t* const end = p + blob.size();
  const char* error = nullptr;
  auto next = [&](uint32_t* value) {
    error = DecodeVarint32(&p, end, value);
    return error == nullptr;
  };
  uint32_t day_count;
  if (!next(&day_count)) return Status::Corruption(error);
  int64_t prev_day = -1;
  for (uint32_t i = 0; i < day_count; ++i) {
    uint32_t day;
    if (!next(&day)) return Status::Corruption(error);
    if (day >= static_cast<uint32_t>(num_days)) {
      return Status::Corruption("time list day out of range");
    }
    if (static_cast<int64_t>(day) <= prev_day) {
      return Status::Corruption("time list days out of order");
    }
    prev_day = day;
    uint32_t count;
    if (!next(&count)) return Status::Corruption(error);
    // Each id costs at least one byte: reject impossible counts before the
    // visitor reserves for them.
    if (count > static_cast<size_t>(end - p)) {
      return Status::Corruption("u32 list count exceeds remaining bytes");
    }
    bool want = visitor.BeginDay(day, count);
    uint32_t id = 0;
    for (uint32_t k = 0; k < count; ++k) {
      uint32_t delta;
      if (!next(&delta)) return Status::Corruption(error);
      id += delta;
      if (want) want = visitor.Id(id);
    }
  }
  return Status::OK();
}

/// Builds the full per-day lists (ReadTimeList).
struct CollectDays {
  TimeList* lists;
  std::vector<TrajectoryId>* day_list = nullptr;

  bool BeginDay(uint32_t day, uint32_t count) {
    day_list = &(*lists)[day];
    day_list->reserve(count);
    return true;
  }
  bool Id(uint32_t id) {
    day_list->push_back(id);
    return true;
  }
};

/// Tests each wanted day's ids against the day's start-id set as they are
/// decoded: an id below the set's min keeps the day going, one above its
/// max ends it (no later id can match), and a member marks the day.
struct MarkStartDays {
  const StartIdSets* starts;
  std::vector<uint8_t>* day_hit;
  int marked = 0;
  uint32_t day = 0;
  StartIdSets::DayProbe probe{};

  bool BeginDay(uint32_t d, uint32_t count) {
    if ((*day_hit)[d] || count == 0 || starts->empty(d)) return false;
    day = d;
    probe = starts->Probe(d);
    return true;
  }
  bool Id(uint32_t id) {
    switch (probe.Test(id)) {
      case StartIdSets::Membership::kAbsent:
        return true;
      case StartIdSets::Membership::kPastMax:
        return false;
      case StartIdSets::Membership::kPresent:
        break;
    }
    (*day_hit)[day] = 1;
    ++marked;
    return false;
  }
};

/// Per-thread posting buffer: ReadTimeList copies posting bytes here
/// instead of allocating a fresh string per read.
std::string& PostingBuffer() {
  thread_local std::string buffer;
  return buffer;
}

}  // namespace

StatusOr<std::unique_ptr<StIndex>> StIndex::Build(
    const RoadNetwork& network, const TrajectoryStore& store,
    const StIndexOptions& options) {
  if (!network.finalized()) {
    return Status::FailedPrecondition("StIndex::Build: network not finalized");
  }
  if (options.slot_seconds <= 0 || options.slot_seconds > kSecondsPerDay) {
    return Status::InvalidArgument("StIndex: slot width out of range");
  }
  if (options.posting_path.empty()) {
    return Status::InvalidArgument("StIndex: posting_path is required");
  }

  auto index = std::unique_ptr<StIndex>(new StIndex(network, options));
  index->slots_per_day_ = SlotsPerDay(options.slot_seconds);
  index->num_days_ = store.num_days();

  // Time lists: a counting sort of (day, trajectory) entries by cell =
  // slot × num_segments + segment, the store's slot-major order. Pass 1
  // counts each cell's entries, a prefix sum turns the counts into runs of
  // one flat array, and pass 2 scatters the entries into their runs. A
  // trajectory's consecutive samples in one cell give one entry; a later
  // revisit gives a duplicate, which the encode drops.
  const PostingGrid grid{static_cast<uint32_t>(network.NumSegments()),
                         static_cast<uint32_t>(index->slots_per_day_)};
  {
    Status bad;
    auto for_each_entry = [&](auto&& visit) {
      store.ForEach([&](const MatchedTrajectory& traj) {
        uint64_t prev = grid.cells();  // no cell
        for (const MatchedSample& s : traj.samples) {
          if (s.segment >= grid.num_segments) continue;
          const SlotId slot = SlotOf(s.timestamp, options.slot_seconds);
          if (slot < 0 || static_cast<uint32_t>(slot) >= grid.slots) {
            if (bad.ok()) {
              bad = Status::InvalidArgument(
                  "StIndex::Build: trajectory " + std::to_string(traj.id) +
                  " has a sample at " + std::to_string(s.timestamp) +
                  " s, outside the slot grid");
            }
            continue;
          }
          const uint64_t cell =
              static_cast<uint64_t>(slot) * grid.num_segments + s.segment;
          if (cell == prev) continue;
          prev = cell;
          visit(traj, cell);
        }
      });
    };

    // ends[c + 1] counts cell c's entries; after the prefix sum ends[c] is
    // where c's run starts, and after the scatter, where it ends.
    std::vector<uint64_t> ends(grid.cells() + 1, 0);
    for_each_entry([&](const MatchedTrajectory&, uint64_t cell) {
      ++ends[cell + 1];
    });
    STRR_RETURN_IF_ERROR(bad);
    for (size_t c = 1; c < ends.size(); ++c) ends[c] += ends[c - 1];
    std::vector<ListEntry> entries(ends.back());
    for_each_entry([&](const MatchedTrajectory& traj, uint64_t cell) {
      entries[ends[cell]++] = (static_cast<ListEntry>(traj.day) << 32) |
                              traj.id;
    });

    STRR_ASSIGN_OR_RETURN(
        std::unique_ptr<PostingStoreBuilder> builder,
        PostingStoreBuilder::Create(options.posting_path, options.page_size));
    // Runs arrive sorted by day (ForEach walks the days in order) and, when
    // each day's ids were added in order, by id too; only other runs sort.
    BinaryWriter blob;
    ListEntry* run = entries.data();
    for (uint64_t cell = 0; cell < grid.cells(); ++cell) {
      ListEntry* first = run;
      ListEntry* last = entries.data() + ends[cell];
      run = last;
      if (first == last) continue;
      if (!std::is_sorted(first, last)) std::sort(first, last);
      last = std::unique(first, last);
      blob.Clear();
      EncodeTimeList(first, last, &blob);
      STRR_RETURN_IF_ERROR(builder->Add(
          MakePostingKey(static_cast<uint32_t>(cell % grid.num_segments),
                         static_cast<uint32_t>(cell / grid.num_segments)),
          blob.data()));
    }
    STRR_RETURN_IF_ERROR(builder->Finish());
  }

  PostingStoreOptions store_options;
  store_options.cache_pages = options.cache_pages;
  store_options.page_size = options.page_size;
  store_options.role = "posting";
  STRR_ASSIGN_OR_RETURN(index->postings_,
                        PostingStore::Open(options.posting_path, grid,
                                           store_options));
  return index;
}

StatusOr<SegmentId> StIndex::LocateSegment(const XyPoint& p) const {
  // The R-tree ranks by box distance; re-rank its 8 nearest by geometric
  // distance. The first of equal distances, in R-tree order, wins.
  std::vector<uint32_t> candidates = network_->spatial_index().Nearest(p, 8);
  if (candidates.empty()) return Status::NotFound("no segments in index");
  SegmentId best = candidates.front();
  double best_dist = network_->segment(best).shape.Project(p).distance;
  for (size_t i = 1; i < candidates.size(); ++i) {
    double d = network_->segment(candidates[i]).shape.Project(p).distance;
    if (d < best_dist) {
      best_dist = d;
      best = candidates[i];
    }
  }
  if (options_.max_locate_distance_m > 0 &&
      best_dist > options_.max_locate_distance_m) {
    return Status::NotFound("no segment within " +
                            std::to_string(options_.max_locate_distance_m) +
                            "m of query location");
  }
  return best;
}

SlotId StIndex::SlotForTime(int64_t time_of_day_sec) const {
  return SlotOfTimeOfDay(NormalizeTimeOfDay(time_of_day_sec),
                         options_.slot_seconds);
}

std::vector<SlotId> StIndex::SlotsCovering(int64_t begin_tod,
                                           int64_t end_tod) const {
  std::vector<SlotId> slots;
  begin_tod = std::max<int64_t>(0, begin_tod);
  end_tod = std::min<int64_t>(kSecondsPerDay, end_tod);
  if (end_tod <= begin_tod) return slots;
  SlotId first = SlotForTime(begin_tod);
  SlotId last = SlotForTime(end_tod - 1);
  for (SlotId s = first; s <= last; ++s) slots.push_back(s);
  return slots;
}

StatusOr<TimeList> StIndex::ReadTimeList(SegmentId seg, SlotId slot) const {
  TimeList lists(static_cast<size_t>(num_days_));
  std::string& blob = PostingBuffer();
  STRR_ASSIGN_OR_RETURN(
      bool found,
      postings_->GetInto(MakePostingKey(seg, static_cast<uint32_t>(slot)),
                         &blob));
  if (!found) return lists;  // no traffic at all
  CollectDays collect{&lists};
  STRR_RETURN_IF_ERROR(DecodeTimeList(blob, num_days_, collect));
  return lists;
}

PostingStore::Window StIndex::TimeListWindow(SlotId first_slot,
                                             SlotId last_slot) const {
  if (last_slot < 0) return PostingStore::Window(*postings_, 1, 0);  // empty
  first_slot = std::max<SlotId>(first_slot, 0);
  return PostingStore::Window(*postings_, static_cast<uint32_t>(first_slot),
                              static_cast<uint32_t>(last_slot));
}

StatusOr<StIndex::SegmentMarks> StIndex::MarkDaysIntersecting(
    SegmentId seg, PostingStore::Window* window,
    const StartIdSets& start_ids, std::vector<uint8_t>* day_hit,
    int stop_at) const {
  const size_t days = static_cast<size_t>(num_days_);
  if (start_ids.num_days() != days || day_hit->size() != days) {
    return Status::InvalidArgument(
        "MarkDaysIntersecting: start_ids/day_hit must have one entry per day");
  }
  SegmentMarks marks;
  auto marked = std::count(day_hit->begin(), day_hit->end(), 1);
  for (uint32_t slot = window->first_slot();
       slot < window->end_slot() && marked < stop_at; ++slot) {
    std::string_view blob;
    STRR_ASSIGN_OR_RETURN(bool found, window->Read(seg, slot, &blob));
    if (!found) continue;
    MarkStartDays mark{&start_ids, day_hit};
    STRR_RETURN_IF_ERROR(DecodeTimeList(blob, num_days_, mark));
    ++marks.lists_read;
    marks.days_marked += mark.marked;
    marked += mark.marked;
  }
  return marks;
}

bool StIndex::HasTraffic(SegmentId seg, SlotId slot) const {
  return postings_->Contains(MakePostingKey(seg, static_cast<uint32_t>(slot)));
}

}  // namespace strr
