// Micro-benchmarks (google-benchmark) for the index/storage components:
// R-tree build & queries, B+-tree ops, network expansion, posting store
// reads, the start-id membership test. These are the inner loops every query
// pays; the figure benches measure the end-to-end behaviour.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <unordered_map>

#include "index/bplus_tree.h"
#include "index/rtree.h"
#include "index/start_id_sets.h"
#include "roadnet/city_generator.h"
#include "roadnet/expansion.h"
#include "roadnet/segment_grid.h"
#include "search/expansion_context.h"
#include "search/frontier_engine.h"
#include "storage/posting_store.h"
#include "util/flat_hash.h"
#include "util/rng.h"

namespace strr {
namespace {

std::vector<RTree::Entry> MakeEntries(size_t n) {
  Rng rng(42);
  std::vector<RTree::Entry> entries;
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0, 20000), y = rng.Uniform(0, 14000);
    entries.push_back({Mbr(x, y, x + 400, y + 400), i});
  }
  return entries;
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  auto entries = MakeEntries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RTree tree(16);
    tree.BulkLoad(entries);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000);

void BM_RTreeInsert(benchmark::State& state) {
  auto entries = MakeEntries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RTree tree(16);
    for (const auto& e : entries) tree.Insert(e.box, e.value);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(5000);

void BM_RTreeSearch(benchmark::State& state) {
  auto entries = MakeEntries(10000);
  RTree tree(16);
  tree.BulkLoad(entries);
  Rng rng(7);
  for (auto _ : state) {
    double x = rng.Uniform(0, 20000), y = rng.Uniform(0, 14000);
    auto hits = tree.Search(Mbr(x, y, x + 1500, y + 1500));
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeSearch);

void BM_RTreeNearest(benchmark::State& state) {
  auto entries = MakeEntries(10000);
  RTree tree(16);
  tree.BulkLoad(entries);
  Rng rng(7);
  for (auto _ : state) {
    XyPoint p{rng.Uniform(0, 20000), rng.Uniform(0, 14000)};
    auto hits = tree.Nearest(p, 8);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeNearest);

void BM_BPlusTreeInsert(benchmark::State& state) {
  Rng rng(3);
  std::vector<int64_t> keys;
  for (int i = 0; i < state.range(0); ++i) {
    keys.push_back(rng.UniformInt(0, 1 << 26));
  }
  for (auto _ : state) {
    BPlusTree tree(32);
    for (int64_t k : keys) tree.Insert(k, 1);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(10000);

void BM_BPlusTreeFloor(benchmark::State& state) {
  BPlusTree tree(32);
  for (int64_t k = 0; k < 86400; k += 300) {
    tree.Insert(k, static_cast<uint32_t>(k / 300));
  }
  Rng rng(5);
  for (auto _ : state) {
    auto hit = tree.Floor(rng.UniformInt(0, 86399));
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_BPlusTreeFloor);

void BM_PostingStoreGet(benchmark::State& state) {
  std::string path = std::filesystem::temp_directory_path() /
                     "strr_micro_postings.bin";
  constexpr int kEntries = 5000;
  {
    auto builder = PostingStoreBuilder::Create(path);
    Rng rng(9);
    for (int i = 0; i < kEntries; ++i) {
      std::string blob(static_cast<size_t>(rng.UniformInt(20, 400)), 'x');
      (void)(*builder)->Add(static_cast<PostingKey>(i), blob);
    }
    (void)(*builder)->Finish();
  }
  const PostingGrid grid{1, kEntries};
  const size_t cache_pages = static_cast<size_t>(state.range(0));
  auto store = PostingStore::Open(path, grid, cache_pages);
  Rng rng(13);
  for (auto _ : state) {
    auto blob =
        (*store)->Get(static_cast<PostingKey>(rng.UniformInt(0, kEntries - 1)));
    benchmark::DoNotOptimize(blob);
  }
  state.counters["hit_rate"] =
      static_cast<double>((*store)->stats().cache_hits) /
      std::max<uint64_t>(1, (*store)->stats().TotalRequests());
}
BENCHMARK(BM_PostingStoreGet)->Arg(16)->Arg(4096);

// --- Path-cache layout: node-based unordered_map vs FlatU64Map ------------
// The Router memoizes (source << 32 | target) -> path. Both benches fill
// the same keys with small paths, then hammer hit lookups — the hot case.

std::vector<uint64_t> MakePathKeys(size_t n) {
  Rng rng(21);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back((static_cast<uint64_t>(rng.UniformInt(0, 1 << 14)) << 32) |
                   static_cast<uint64_t>(rng.UniformInt(0, 1 << 14)));
  }
  return keys;
}

std::vector<SegmentId> MakePath(Rng& rng) {
  std::vector<SegmentId> path(static_cast<size_t>(rng.UniformInt(4, 24)));
  for (SegmentId& s : path) {
    s = static_cast<SegmentId>(rng.UniformInt(0, 1 << 16));
  }
  return path;
}

void BM_UnorderedPathCacheLookup(benchmark::State& state) {
  auto keys = MakePathKeys(static_cast<size_t>(state.range(0)));
  Rng rng(22);
  std::unordered_map<uint64_t, std::vector<SegmentId>> cache;
  for (uint64_t k : keys) cache.emplace(k, MakePath(rng));
  Rng pick(23);
  for (auto _ : state) {
    auto it = cache.find(keys[static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))]);
    benchmark::DoNotOptimize(it);
  }
}
BENCHMARK(BM_UnorderedPathCacheLookup)->Arg(1024)->Arg(65536);

void BM_FlatPathCacheLookup(benchmark::State& state) {
  auto keys = MakePathKeys(static_cast<size_t>(state.range(0)));
  Rng rng(22);
  FlatU64Map<std::vector<SegmentId>> cache;
  for (uint64_t k : keys) cache.Emplace(k, MakePath(rng));
  Rng pick(23);
  for (auto _ : state) {
    const std::vector<SegmentId>* hit = cache.Find(keys[static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))]);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_FlatPathCacheLookup)->Arg(1024)->Arg(65536);

// --- Cell-directory layout: unordered_map buckets vs frozen sorted CSR ----
// SegmentGrid froze its cell directory into sorted keys + offsets; the
// reference bench replicates the old node-based layout over the identical
// (cell, segment) pairs so the comparison isolates the directory walk.

struct GridFixture {
  City city;
  std::unique_ptr<SegmentGrid> grid;
  std::unordered_map<int64_t, std::vector<SegmentId>> reference_cells;
  double cell = 250.0;

  GridFixture() {
    CityOptions opt;
    opt.grid_cols = 18;
    opt.grid_rows = 13;
    city = std::move(*GenerateCity(opt));
    grid = std::make_unique<SegmentGrid>(city.network, cell);
    for (const RoadSegment& seg : city.network.segments()) {
      const Mbr& box = seg.bounding_box();
      for (int cx = Cell(box.min_x()); cx <= Cell(box.max_x()); ++cx) {
        for (int cy = Cell(box.min_y()); cy <= Cell(box.max_y()); ++cy) {
          reference_cells[Key(cx, cy)].push_back(seg.id);
        }
      }
    }
  }

  int Cell(double v) const { return static_cast<int>(std::floor(v / cell)); }
  static int64_t Key(int cx, int cy) {
    return (static_cast<int64_t>(cx) << 32) ^ (cy & 0xffffffffLL);
  }
};

const GridFixture& SharedGrid() {
  static GridFixture fixture;
  return fixture;
}

void BM_UnorderedGridCellProbe(benchmark::State& state) {
  const GridFixture& fx = SharedGrid();
  Mbr box = fx.city.network.BoundingBox();
  Rng rng(29);
  for (auto _ : state) {
    int cx = fx.Cell(rng.Uniform(box.min_x(), box.max_x()));
    int cy = fx.Cell(rng.Uniform(box.min_y(), box.max_y()));
    uint64_t touched = 0;
    auto it = fx.reference_cells.find(GridFixture::Key(cx, cy));
    if (it != fx.reference_cells.end()) {
      for (SegmentId id : it->second) touched += id;
    }
    benchmark::DoNotOptimize(touched);
  }
}
BENCHMARK(BM_UnorderedGridCellProbe);

void BM_FlatGridWithinRadius(benchmark::State& state) {
  const GridFixture& fx = SharedGrid();
  Mbr box = fx.city.network.BoundingBox();
  Rng rng(29);
  for (auto _ : state) {
    XyPoint p{rng.Uniform(box.min_x(), box.max_x()),
              rng.Uniform(box.min_y(), box.max_y())};
    auto hits = fx.grid->WithinRadius(p, 120.0);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_FlatGridWithinRadius);

// --- Frontier expansion ------------------------------------------------------
// The FrontierEngine timed (Dijkstra) loop on one reused context.

void BM_NetworkExpansion(benchmark::State& state) {
  const GridFixture& fx = SharedGrid();
  const RoadNetwork& net = fx.city.network;
  SpeedFn speeds = FreeFlowSpeeds(net);
  FrontierEngine engine(net);
  ExpansionContext ctx;
  Rng rng(31);
  const double budget = static_cast<double>(state.range(0));
  for (auto _ : state) {
    SegmentId src =
        static_cast<SegmentId>(rng.UniformInt(0, net.NumSegments() - 1));
    FrontierEngine::TimedRequest request;
    request.sources = std::span<const SegmentId>(&src, 1);
    request.budget = budget;
    engine.RunTimed(ctx, request, speeds);
    benchmark::DoNotOptimize(ctx.reached().size());
  }
}
BENCHMARK(BM_NetworkExpansion)->Arg(300)->Arg(1200);

// One day's verification walk: a sorted list of range(0) ids probed
// against a start set of as many ids, as MarkDaysIntersecting tests the
// ids it decodes. range(1) = 0 spreads the start ids over the bench's
// ~13k-id range (a bitmap); 1 spreads them over 2^30 ids (the galloping
// fallback). Start ids are even and list ids odd, so a probe finds no
// member and walks the list up to the start set's max.
void BM_StartIdMembership(benchmark::State& state) {
  Rng rng(17);
  const int64_t range = state.range(1) == 0 ? 13000 : int64_t{1} << 30;
  std::vector<TrajectoryId> start, list;
  for (int i = 0; i < state.range(0); ++i) {
    start.push_back(static_cast<TrajectoryId>(2 * rng.UniformInt(0, range)));
    list.push_back(static_cast<TrajectoryId>(2 * rng.UniformInt(0, range) + 1));
  }
  for (auto* ids : {&start, &list}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }
  const StartIdSets sets({start});
  if (sets.is_bitmap(0) != (state.range(1) == 0)) {
    state.SkipWithError("start set has the wrong representation");
    return;
  }
  for (auto _ : state) {
    StartIdSets::DayProbe probe = sets.Probe(0);
    bool hit = false;
    for (TrajectoryId id : list) {
      const StartIdSets::Membership m = probe.Test(id);
      if (m == StartIdSets::Membership::kAbsent) continue;
      hit = m == StartIdSets::Membership::kPresent;
      break;
    }
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(list.size()));
}
BENCHMARK(BM_StartIdMembership)
    ->ArgNames({"ids", "fallback"})
    ->Args({32, 0})
    ->Args({512, 0})
    ->Args({32, 1})
    ->Args({512, 1});

}  // namespace
}  // namespace strr

BENCHMARK_MAIN();
