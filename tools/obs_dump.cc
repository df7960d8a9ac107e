// Observability export demo: builds the deterministic small dataset,
// enables every obs knob, drives a concurrent query mix through the front
// door (small admission capacity, so queries actually queue), and writes
//
//   <out_dir>/metrics.prom  — Prometheus text exposition of the registry
//   <out_dir>/trace.json    — Chrome trace-event JSON of the flight
//                             recorder (chrome://tracing / Perfetto)
//
// Used manually ("what does a scrape look like?") and by CI as a smoke
// test that both export surfaces stay parseable.
//
// Exit codes: 0 = ok, 1 = export looks wrong, 2 = setup error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/reachability_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace strr {
namespace {

int Fail(int code, const std::string& message) {
  std::fprintf(stderr, "obs_dump: %s\n", message.c_str());
  return code;
}

int64_t HMS(int hour) { return static_cast<int64_t>(hour) * 3600; }

int Run(const std::string& out_dir) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) return Fail(2, "cannot create " + out_dir + ": " + ec.message());

  auto dataset = BuildDataset(TestDatasetOptions());
  if (!dataset.ok()) return Fail(2, dataset.status().ToString());

  EngineOptions opt;
  opt.work_dir = out_dir + "/engine";
  opt.delta_t_seconds = 300;
  opt.cache_pages = 1024;
  // Tiny admission capacity: the concurrent mix below must queue, so the
  // trace shows real admission_wait spans, not zero-length ones.
  opt.max_inflight_queries = 2;
  // Result cache + live snapshots on, so cache_lookup / cache_insert /
  // snapshot_pin spans appear in the trace alongside the search spans.
  opt.result_cache_entries = 256;
  opt.live_ingestion = true;
  // Every obs knob on. slow_query_ms is set low enough that the heavier
  // m-queries trip the slow-query log on any machine.
  opt.metrics = true;
  opt.trace_sample_n = 1;
  opt.flight_recorder_events = 8192;
  opt.slow_query_ms = 0.05;
  auto engine =
      ReachabilityEngine::Build(dataset->network, *dataset->store, opt);
  if (!engine.ok()) return Fail(2, engine.status().ToString());

  // Concurrent s-queries (4 threads over 2 admission slots) plus m-queries
  // on the main thread: admission waits, expansion rounds, TBS and the
  // result cache all light up. Repeats hit the cache, so cache_lookup
  // spans show both outcomes.
  const XyPoint center = dataset->center;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&engine, center, t] {
      for (int i = 0; i < 8; ++i) {
        SQuery q{center, HMS(9 + (t + i) % 4), 600 + 300 * (i % 3), 0.1};
        auto r = (*engine)->SQueryIndexed(q);
        (void)r;
      }
    });
  }
  Mbr box = (*engine)->network().BoundingBox();
  for (int i = 0; i < 4; ++i) {
    MQuery m;
    m.locations = {center,
                   {box.min_x() + box.Width() * 0.4,
                    box.min_y() + box.Height() * 0.4}};
    m.start_tod = HMS(10 + i % 2);
    m.duration = 900;
    m.prob = 0.1;
    auto r = (*engine)->MQueryIndexed(m);
    if (!r.ok() && !r.status().IsNotFound()) {
      return Fail(2, "m-query failed: " + r.status().ToString());
    }
  }
  for (auto& w : workers) w.join();

  std::string prom;
  (*engine)->DumpMetricsPrometheus(&prom);
  if (prom.find("strr_queries_total") == std::string::npos ||
      prom.find("strr_query_wall_us_bucket") == std::string::npos) {
    return Fail(1, "Prometheus dump is missing core series:\n" + prom);
  }
  const std::string prom_path = out_dir + "/metrics.prom";
  std::FILE* f = std::fopen(prom_path.c_str(), "w");
  if (f == nullptr) return Fail(2, "cannot open " + prom_path);
  std::fwrite(prom.data(), 1, prom.size(), f);
  std::fclose(f);

  const std::string trace_path = out_dir + "/trace.json";
  Status ts = (*engine)->DumpTrace(trace_path);
  if (!ts.ok()) return Fail(2, ts.ToString());

  obs::Tracer& tracer = obs::Tracer::Global();
  std::printf(
      "obs_dump: wrote %s (%zu bytes) and %s\n"
      "  trace events recorded: %llu (dropped %llu), slow queries: %llu\n",
      prom_path.c_str(), prom.size(), trace_path.c_str(),
      static_cast<unsigned long long>(tracer.events_recorded()),
      static_cast<unsigned long long>(tracer.events_dropped()),
      static_cast<unsigned long long>(tracer.slow_queries()));
  if (tracer.events_recorded() == 0) {
    return Fail(1, "flight recorder is empty after a traced workload");
  }
  return 0;
}

}  // namespace
}  // namespace strr

int main(int argc, char** argv) {
  strr::SetLogLevelFromEnv();
  if (argc != 2) {
    std::fprintf(stderr, "usage: obs_dump <out_dir>\n");
    return 2;
  }
  return strr::Run(argv[1]);
}
