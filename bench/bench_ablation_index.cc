// Ablation bench — the design choices DESIGN.md calls out:
//
//  1. Con-Index value: SQMB+TBS vs ES (no Con-Index at all).
//  2. Buffer-pool capacity sweep: the disk reads of a fixed sequence of
//     distinct queries on one pool (cache_pages in {0, 256, 2048, 16384}).
//  3. Posting layout: per-(segment,slot) blocks mean one Get per candidate
//     slot; measured as lists-read per verified segment.
//  4. Interior-trust: segments TBS accepted without verification.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace strr;        // NOLINT
using namespace strr::bench;  // NOLINT

int main() {
  auto dataset = LoadOrBuildBenchDataset();
  if (!dataset.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", dataset.status().ToString().c_str());
    return 1;
  }

  std::printf("Ablation 1+4: Con-Index value and interior trust "
              "(T=11:00, Prob=20%%)\n");
  PrintRow({"L(min)", "tbs_verified", "es_verified", "interior_trusted",
            "tbs_ms", "es_ms"});
  {
    auto engine = BuildBenchEngine(*dataset, 300);
    if (!engine.ok()) return 1;
    XyPoint loc = PickBusyLocation(**engine, *dataset, HMS(11));
    bool always_fewer = true;
    for (int minutes : {5, 10, 20, 30}) {
      SQuery q{loc, HMS(11), minutes * 60, 0.2};
      auto tbs = ColdSQueryIndexed(**engine, q);
      auto es = ColdSQueryExhaustive(**engine, q);
      if (!tbs.ok() || !es.ok()) return 1;
      uint64_t trusted =
          tbs->stats.max_region_segments - tbs->stats.segments_verified;
      PrintRow({std::to_string(minutes),
                std::to_string(tbs->stats.segments_verified),
                std::to_string(es->stats.segments_verified),
                std::to_string(trusted), Cell(tbs->stats.wall_ms, 2),
                Cell(es->stats.wall_ms, 2)});
      always_fewer &=
          tbs->stats.segments_verified < es->stats.segments_verified;
    }
    ShapeCheck("ablation.con_index_saves_verification", always_fewer,
               "TBS verifies fewer segments than ES at every L");
  }

  std::printf("\nAblation 2: buffer-pool capacity sweep "
              "(busy locations at 08:00, 11:00, 14:00 and 17:00, "
              "L=10 and 20min, Prob=20%%)\n");
  PrintRow({"cache_pages", "disk_reads", "hits", "misses", "wall_ms"});
  uint64_t reads_small = 0, reads_large = 0;
  // One query's window already reads each page once, so the pool can only
  // save reads across queries: run a fixed sequence of distinct queries on
  // one pool and count its disk reads.
  std::vector<SQuery> sequence;
  for (size_t pages : {size_t{0}, size_t{256}, size_t{2048}, size_t{16384}}) {
    auto engine = BuildBenchEngine(*dataset, 300, pages);
    if (!engine.ok()) return 1;
    if (sequence.empty()) {
      for (int hour : {8, 11, 14, 17}) {
        XyPoint loc = PickBusyLocation(**engine, *dataset, HMS(hour));
        for (int minutes : {10, 20}) {
          sequence.push_back(SQuery{loc, HMS(hour), minutes * 60, 0.2});
        }
      }
    }
    // Warm the Con-Index tables, then measure the sequence from a dropped
    // page cache without dropping it between queries.
    for (const SQuery& q : sequence) {
      if (!(*engine)->SQueryIndexed(q).ok()) return 1;
    }
    (*engine)->ResetIoStats(true);
    uint64_t reads = 0, hits = 0, misses = 0;
    double wall_ms = 0.0;
    for (const SQuery& q : sequence) {
      auto r = (*engine)->SQueryIndexed(q);
      if (!r.ok()) return 1;
      reads += r->stats.io.disk_page_reads;
      hits += r->stats.io.cache_hits;
      misses += r->stats.io.cache_misses;
      wall_ms += r->stats.wall_ms;
    }
    PrintRow({std::to_string(pages), std::to_string(reads),
              std::to_string(hits), std::to_string(misses),
              Cell(wall_ms, 2)});
    if (pages == 0) reads_small = reads;
    if (pages == 16384) reads_large = reads;
  }
  ShapeCheck("ablation.buffer_pool_reduces_disk_reads",
             reads_large < reads_small,
             std::to_string(reads_large) + " reads at 16k pages vs " +
                 std::to_string(reads_small) + " at 0 over " +
                 std::to_string(sequence.size()) + " queries");

  std::printf("\nAblation 3: posting layout efficiency (L=10min)\n");
  {
    auto engine = BuildBenchEngine(*dataset, 300);
    if (!engine.ok()) return 1;
    XyPoint loc = PickBusyLocation(**engine, *dataset, HMS(11));
    SQuery q{loc, HMS(11), 600, 0.2};
    auto r = ColdSQueryIndexed(**engine, q);
    if (!r.ok()) return 1;
    double lists_per_seg =
        r->stats.segments_verified == 0
            ? 0.0
            : static_cast<double>(r->stats.time_lists_read) /
                  r->stats.segments_verified;
    double slots = 600.0 / 300.0;  // candidate slots per verification
    PrintRow({"lists/verified", Cell(lists_per_seg, 2)});
    PrintRow({"candidate slots", Cell(slots, 0)});
    ShapeCheck("ablation.posting_layout_one_get_per_slot",
               lists_per_seg <= slots + 1.0,
               Cell(lists_per_seg, 2) + " list reads per verified segment");
  }
  return 0;
}
