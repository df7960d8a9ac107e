// bench_strr: the repository benchmark. One workload per process.
//
//   bench_strr --workload <paper_cold|serve_city|serve_hot|live_ingest>
//              --seed <n> --seconds <window> --data-dir <dir> --work-dir <dir>
//              [--json out.json] [--trace trace.json] [--golden-dir <dir>]
//              [--write-golden] [--smoke]
//
// A run loads (or generates once, untimed) the fixed bench dataset, derives
// the workload's query and observation streams from --seed, then three times
// sets an engine up (timed; setup_s is the median) and drives closed-loop
// clients against it for a third of --seconds. Every answer is checked
// against the warm-up reference, and seed 1's plans against the committed
// golden digests. With --trace it instead sets up once, drives each plan
// layer by layer through the public functions, records spans in memory,
// probes the storage read path, and reports per-layer numbers.
// perfbench/README.md lists every metric and why each workload exists;
// perfbench/run.py is the entry point that builds and runs this.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/persist.h"
#include "core/reachability_engine.h"
#include "live/recovery_manager.h"
#include "query/bounding_region.h"
#include "query/es_baseline.h"
#include "query/probability.h"
#include "query/trace_back.h"
#include "traj/fleet_simulator.h"
#include "util/logging.h"

namespace strr {
namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "bench_strr: %s\n", message.c_str());
  std::exit(2);
}

// --- Deterministic inputs ----------------------------------------------------

/// splitmix64: the query and observation streams must be identical for one
/// seed on every host, so they do not depend on std distribution code.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SeededRng mix(seed * 0x100000001b3ULL + stream);
  return mix.Next();
}

/// One client request: a location set (one = s-query, several = m-query).
struct Request {
  std::vector<XyPoint> locations;
  int64_t start_tod = 0;
  int64_t duration = 0;
  double prob = 0.0;
};

StatusOr<QueryPlan> PlanRequest(const QueryPlanner& planner,
                                const Request& r) {
  if (r.locations.size() == 1) {
    return planner.PlanSQuery(
        SQuery{r.locations[0], r.start_tod, r.duration, r.prob});
  }
  return planner.PlanMQuery(
      MQuery{r.locations, r.start_tod, r.duration, r.prob});
}

/// Query locations are street addresses: midpoints of non-highway segments
/// that resolve back to themselves (or their twin) through the R-tree.
/// Sorted by distance from the city centre.
std::vector<XyPoint> CandidateLocations(const ReachabilityEngine& engine,
                                        const Dataset& dataset,
                                        double radius_m, int64_t busy_tod) {
  const RoadNetwork& net = engine.network();
  const StIndex& index = engine.st_index();
  const SlotId slot = index.SlotForTime(busy_tod);
  std::vector<XyPoint> out;
  for (SegmentId s = 0; s < net.NumSegments(); ++s) {
    const RoadSegment& seg = net.segment(s);
    if (seg.level == RoadLevel::kHighway) continue;
    XyPoint mid = seg.shape.Interpolate(seg.length / 2);
    if (radius_m > 0) {
      if (Distance(mid, dataset.center) > radius_m) continue;
      if (!index.HasTraffic(s, slot)) continue;
    }
    auto located = index.LocateSegment(mid);
    if (!located.ok() || (*located != s && *located != seg.reverse_id)) {
      continue;
    }
    out.push_back(mid);
  }
  std::sort(out.begin(), out.end(), [&](const XyPoint& a, const XyPoint& b) {
    return Distance(a, dataset.center) < Distance(b, dataset.center);
  });
  return out;
}

// Stratified parameters: position i cycles L over 7 values, Prob over 9,
// the distance ring of its location over 11 and (citywide) its start hour
// over 14; every 8th request is an m-query. The periods are coprime, so any
// prefix is balanced in each. The seed picks the location inside the ring
// and the minute inside the hour, so two seeds load the engine alike and
// run-to-run spread stays small.
constexpr int kDurationsMin[] = {5, 10, 15, 20, 25, 30, 35};
constexpr double kProbs[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
constexpr size_t kRings = 11;

/// `candidates` sorted by distance from the centre.
std::vector<Request> MakeRequests(const std::vector<XyPoint>& candidates,
                                  size_t count, bool downtown, uint64_t seed) {
  SeededRng rng(StreamSeed(seed, downtown ? 2 : 1));
  const size_t n = candidates.size();
  std::vector<Request> out(count);
  for (size_t i = 0; i < count; ++i) {
    Request& r = out[i];
    size_t locations = (i % 8 == 7) ? 2 + rng.Below(5) : 1;
    for (size_t k = 0; k < locations; ++k) {
      size_t ring = (i + 4 * k) % kRings;
      size_t first = ring * n / kRings, last = (ring + 1) * n / kRings;
      r.locations.push_back(candidates[first + rng.Below(last - first)]);
    }
    r.duration = 60 * kDurationsMin[(i + 3) % 7];
    r.prob = kProbs[(i + 4) % 9];
    if (downtown) {
      r.start_tod = HMS(8, 15 * static_cast<int>(i % 4));
    } else {
      r.start_tod = HMS(7 + static_cast<int>(i % 14)) +
                    static_cast<int64_t>(rng.Below(3600));
    }
  }
  return out;
}

/// Zipf(1) over ranks 0..n-1; rank r is request r.
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) cdf_[r] = (total += 1.0 / (r + 1));
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(SeededRng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// --- Answers -----------------------------------------------------------------

/// FNV-1a of the sorted segment ids, plus count and total length.
struct Digest {
  uint64_t fnv = 0;
  size_t count = 0;
  double length_m = 0;
  bool operator==(const Digest& o) const {
    return fnv == o.fnv && count == o.count && length_m == o.length_m;
  }
  std::string ToString() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 " %zu %.3f", fnv, count,
                  length_m);
    return buf;
  }
};

Digest DigestOf(const std::vector<SegmentId>& segments, double length_m) {
  Digest d;
  d.fnv = 0xcbf29ce484222325ULL;
  for (SegmentId s : segments) {
    for (int b = 0; b < 4; ++b) {
      d.fnv ^= (s >> (8 * b)) & 0xff;
      d.fnv *= 0x100000001b3ULL;
    }
  }
  d.count = segments.size();
  d.length_m = length_m;
  return d;
}

Digest DigestOf(const RegionResult& r) {
  return DigestOf(r.segments, r.total_length_m);
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  int clients;
  bool downtown;    // downtown hot set (else the citywide plans)
  bool cold;        // drop the buffer pool before every query
  bool zipf;        // Zipf(1) popularity (else walk the plan list in order)
  bool live;        // live ingestion + a 1000 obs/s feeder thread
};

// Why each exists: perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"paper_cold", 1, false, true, false, false},
    {"serve_city", 4, false, false, false, false},
    {"serve_hot", 4, true, false, true, false},
    {"live_ingest", 3, true, false, true, true},
};

// Sizes chosen so that 4 + 22 x 4 runs of every workload, with set-up,
// fit one hour on a 4-CPU host even when it runs a third slower (README:
// "Sizes").
constexpr int kDatasetDays = 10;
constexpr size_t kCityPlans = 168;
constexpr size_t kHotPlans = 64;
constexpr int kSetupReps = 3;
constexpr double kRampSeconds = 0.5;
constexpr int kFeederRate = 1000;            // observations per second
constexpr size_t kPrimeObservations = 60000;
// The downtown hot set and the priming stream are part of the fixture, the
// same for every --seed: a seed-drawn Zipf head would make one random plan
// a fifth of the load. The seed drives the clients' draws and the feed.
constexpr uint64_t kFixtureSeed = 1;
constexpr size_t kPrimeChunk = 2000;         // below the 4096 queue bound

// --- Engine construction -----------------------------------------------------

/// The one place the benchmark configures the engine: EngineOptions
/// defaults (4096-page pool, Δt = 300 s, every front-door and interior knob
/// off) plus the work directory and, for live_ingest, durable ingestion.
StatusOr<std::unique_ptr<ReachabilityEngine>> MakeEngine(
    const Dataset& dataset, const std::string& work_dir,
    const std::string& live_dir) {
  EngineOptions opt;
  opt.work_dir = work_dir;
  if (!live_dir.empty()) {
    opt.live_ingestion = true;
    opt.live_durability = true;
    opt.live_durability_dir = live_dir;
  }
  return ReachabilityEngine::Build(dataset.network, *dataset.store, opt);
}

/// Segments with historical traffic per profile slot: the live feed reports
/// from roads that carry traffic, not from never-observed alleys.
std::vector<std::vector<SegmentId>> CoveredSegments(
    const ReachabilityEngine& engine) {
  const SpeedProfile& profile = engine.speed_profile();
  std::vector<std::vector<SegmentId>> covered(profile.num_slots());
  for (int32_t slot = 0; slot < profile.num_slots(); ++slot) {
    for (SegmentId s = 0; s < engine.network().NumSegments(); ++s) {
      if (profile.HasObservations(s, slot * profile.slot_seconds())) {
        covered[slot].push_back(s);
      }
    }
  }
  return covered;
}

/// The observation stream: times in the morning peak the hot set queries
/// (07:00-10:00), segments with traffic in that hour.
class ObservationStream {
 public:
  ObservationStream(const ReachabilityEngine& engine,
                    const std::vector<std::vector<SegmentId>>& covered,
                    uint64_t seed)
      : covered_(&covered),
        slot_seconds_(engine.speed_profile().slot_seconds()),
        rng_(seed),
        source_(engine.network(), SourceOptions(seed)) {}

  SpeedObservation Next() {
    for (;;) {
      int64_t tod = HMS(7) + static_cast<int64_t>(rng_.Below(3 * 3600));
      const auto& segs = (*covered_)[static_cast<size_t>(tod / slot_seconds_)];
      if (segs.empty()) continue;
      return source_.NextAt(segs[rng_.Below(segs.size())], tod);
    }
  }

 private:
  static LiveObservationOptions SourceOptions(uint64_t seed) {
    LiveObservationOptions opt;
    opt.seed = seed;
    return opt;
  }
  const std::vector<std::vector<SegmentId>>* covered_;
  int64_t slot_seconds_;
  SeededRng rng_;
  LiveObservationSource source_;
};

double VmRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// --- Metrics output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Fail(const std::string& why) {
    std::fprintf(stderr, "bench_strr: CHECK FAILED: %s\n", why.c_str());
    if (errors_.size() < 20) errors_.push_back(why);
    correct_ = false;
  }
  bool correct() const { return correct_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  bool correct_ = true;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

// --- Closed-loop window ------------------------------------------------------

struct WindowResult {
  std::vector<double> latency_ms;  // measured answers, unsorted
  uint64_t attempted = 0;          // queries, ramp included
  uint64_t failed = 0;
  double elapsed_s = 0;
  QueryStats sums;  // work counters summed over measured answers
  // live_ingest only
  ObservationIngestor::Stats ingest_before, ingest_after;
  LiveProfileManager::Stats live_before, live_after;
  ObservationJournal::Stats wal_before, wal_after;
  uint64_t obs_offered = 0;  // ramp included
  uint64_t obs_failed = 0;
  size_t queue_max = 0;
};

void AddWork(QueryStats& into, const QueryStats& from) {
  into.segments_verified += from.segments_verified;
  into.time_lists_read += from.time_lists_read;
  into.segments_expanded += from.segments_expanded;
  into.heap_pops += from.heap_pops;
  into.io += from.io;
}

/// Pools `from` into `into`.
void Merge(WindowResult& into, const WindowResult& from) {
  into.latency_ms.insert(into.latency_ms.end(), from.latency_ms.begin(),
                         from.latency_ms.end());
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.elapsed_s += from.elapsed_s;
  into.obs_offered += from.obs_offered;
  into.obs_failed += from.obs_failed;
  AddWork(into.sums, from.sums);
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Live answers may differ across snapshot versions but never within one.
class VersionedAnswers {
 public:
  bool Check(size_t plan, uint64_t version, const Digest& d) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = seen_.try_emplace({plan, version}, d);
    return inserted || it->second == d;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<size_t, uint64_t>, Digest> seen_;
};

/// Drives the workload's clients (and feeder) against `engine` for a ramp
/// plus `seconds`; every answer is checked, only the window is measured.
/// `seed` picks the clients' Zipf draws and the feed's observations.
WindowResult RunWindow(ReachabilityEngine& engine, const Workload& w,
                       const std::vector<Request>& requests,
                       const std::vector<Digest>& reference,
                       uint64_t reference_version, double seconds,
                       uint64_t seed, Report& report) {
  WindowResult out;
  std::vector<std::vector<SegmentId>> covered;
  std::unique_ptr<ObservationStream> feed;
  if (w.live) {
    covered = CoveredSegments(engine);
    feed = std::make_unique<ObservationStream>(engine, covered,
                                               StreamSeed(seed, 99));
  }
  std::vector<WindowResult> tallies(w.clients);
  std::vector<uint64_t> mismatched(w.clients, 0);
  VersionedAnswers versioned;
  std::atomic<bool> stop{false};
  ZipfSampler zipf(requests.size());
  ObservationIngestor* ingestor = engine.ingestor();

  // Clients run kRampSeconds before the window opens, so the switch from
  // the sequential warm-up to concurrent load is not measured.
  const Clock::time_point opens =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kRampSeconds));
  auto client = [&](int c) {
    WindowResult& t = tallies[c];
    SeededRng rng(StreamSeed(seed, 100 + c));
    size_t next = c * requests.size() / w.clients;
    while (!stop.load(std::memory_order_relaxed)) {
      size_t i = w.zipf ? zipf.Sample(rng) : next++ % requests.size();
      if (w.cold) engine.ResetIoStats(/*drop_cache=*/true);
      ++t.attempted;
      Clock::time_point sent = Clock::now();
      StatusOr<QueryPlan> plan = PlanRequest(engine.planner(), requests[i]);
      StatusOr<RegionResult> result =
          plan.ok() ? engine.executor().Execute(*plan)
                    : StatusOr<RegionResult>(plan.status());
      double ms = MsSince(sent);
      if (!result.ok()) {
        ++t.failed;
        continue;
      }
      const QueryStats& s = result->stats;
      if (sent >= opens) {
        t.latency_ms.push_back(ms);
        AddWork(t.sums, s);
      }
      Digest d = DigestOf(*result);
      bool ok = w.live && s.snapshot_version != reference_version
                    ? versioned.Check(i, s.snapshot_version, d)
                    : d == reference[i];
      if (!ok) ++mismatched[c];
    }
  };

  auto feeder = [&] {
    const auto interval = std::chrono::microseconds(1000000 / kFeederRate);
    auto due = Clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      engine.OfferObservation(feed->Next());
      if (++out.obs_offered % 16 == 0) {
        out.queue_max = std::max(out.queue_max, ingestor->stats().queue_depth);
      }
      due += interval;
      std::this_thread::sleep_until(due);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; ++c) threads.emplace_back(client, c);
  if (w.live) threads.emplace_back(feeder);
  std::this_thread::sleep_until(opens);
  if (w.live) {
    out.ingest_before = ingestor->stats();
    out.live_before = engine.live_manager()->stats();
    out.wal_before = engine.journal()->stats();
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  out.elapsed_s = MsSince(opens) / 1000.0;

  uint64_t wrong = 0;
  for (int c = 0; c < w.clients; ++c) {
    Merge(out, tallies[c]);
    wrong += mismatched[c];
  }
  if (wrong > 0) {
    report.Fail(std::to_string(wrong) +
                " timed answers differ from the reference for their plan" +
                (w.live ? " and snapshot version" : ""));
  }
  if (out.failed > 0) {
    report.Fail(std::to_string(out.failed) + " queries failed");
  }
  if (w.live) {
    // Quiesce the live tier so the snapshot stats below are final.
    ingestor->Flush();
    out.ingest_after = ingestor->stats();
    out.live_after = engine.live_manager()->stats();
    out.wal_after = engine.journal()->stats();
    // Lifetime counts: priming dies on any rejection, so these are the
    // window's, ramp included like obs_offered.
    const auto& ia = out.ingest_after;
    out.obs_failed =
        ia.rejected_invalid + ia.dropped_full + ia.wal_append_failures;
    if (out.obs_failed > 0) {
      report.Fail(std::to_string(out.obs_failed) + " observations failed");
    }
  }
  return out;
}

// --- Set-up ------------------------------------------------------------------

struct Setup {
  std::unique_ptr<ReachabilityEngine> engine;
  std::vector<Digest> reference;  // warm-up answer per plan
  uint64_t reference_version = 0;
  double seconds = 0;
};

/// Offers `count` observations in queue-sized chunks, publishing each chunk
/// synchronously so none is dropped and the primed profile is exact.
void Prime(ReachabilityEngine& engine, ObservationStream& stream,
           size_t count) {
  for (size_t done = 0; done < count;) {
    size_t chunk = std::min(kPrimeChunk, count - done);
    for (size_t k = 0; k < chunk; ++k) {
      if (!engine.OfferObservation(stream.Next())) {
        Die("priming observation rejected");
      }
    }
    engine.ingestor()->Flush();
    done += chunk;
  }
}

/// Answers every distinct plan once; the answers become the reference.
std::vector<Digest> WarmUp(ReachabilityEngine& engine,
                           const std::vector<Request>& requests,
                           uint64_t* version) {
  std::vector<Digest> reference(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    StatusOr<QueryPlan> plan = PlanRequest(engine.planner(), requests[i]);
    if (!plan.ok()) Die("plan " + std::to_string(i) + ": " +
                        plan.status().ToString());
    StatusOr<RegionResult> result = engine.executor().Execute(*plan);
    if (!result.ok()) Die("warm-up " + std::to_string(i) + ": " +
                          result.status().ToString());
    reference[i] = DigestOf(*result);
    *version = result->stats.snapshot_version;
  }
  return reference;
}

using RequestMaker =
    std::function<std::vector<Request>(const ReachabilityEngine&)>;

/// Build -> (prime) -> warm-up, timed. The first call also makes the
/// requests (untimed: locating them needs the spatial index). `warm` false
/// stops after priming (the traced run wants a cold Con-Index).
Setup SetUpOnce(const Dataset& dataset, const Workload& w,
                const std::string& work_dir, bool warm,
                const RequestMaker& make_requests,
                std::vector<Request>* requests) {
  std::string live_dir;
  if (w.live) {
    live_dir = work_dir + "/obs_wal";
    fs::remove_all(live_dir);
  }
  Setup s;
  Clock::time_point start = Clock::now();
  auto engine = MakeEngine(dataset, work_dir, live_dir);
  if (!engine.ok()) Die("engine build: " + engine.status().ToString());
  s.engine = std::move(*engine);
  const double build_ms = MsSince(start);
  if (requests->empty()) *requests = make_requests(*s.engine);
  start = Clock::now();
  if (w.live) {
    auto covered = CoveredSegments(*s.engine);
    ObservationStream prime(*s.engine, covered,
                            StreamSeed(kFixtureSeed, 3));
    Prime(*s.engine, prime, kPrimeObservations);
  }
  const double prime_ms = MsSince(start);
  start = Clock::now();
  if (warm) s.reference = WarmUp(*s.engine, *requests, &s.reference_version);
  const double warm_ms = MsSince(start);
  s.seconds = (build_ms + prime_ms + warm_ms) / 1000.0;
  std::fprintf(stderr,
               "bench_strr: set-up %.2f s (build %.2f, prime %.2f, "
               "warm-up %.2f)\n",
               s.seconds, build_ms / 1000, prime_ms / 1000, warm_ms / 1000);
  return s;
}

// --- Golden digests ----------------------------------------------------------

std::string GoldenPath(const std::string& dir, const Workload& w,
                       uint64_t seed) {
  return dir + "/" + w.name + ".seed" + std::to_string(seed) + ".txt";
}

void WriteGolden(const std::string& path, const std::vector<Digest>& ref) {
  std::ofstream out(path);
  out << "# plan fnv1a64 segments total_length_m\n";
  for (size_t i = 0; i < ref.size(); ++i) {
    out << i << ' ' << ref[i].ToString() << '\n';
  }
  if (!out) Die("cannot write " + path);
}

void CheckGolden(const std::string& path, const std::vector<Digest>& ref,
                 Report& report) {
  std::ifstream in(path);
  if (!in) {
    report.Fail("golden file missing: " + path);
    return;
  }
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    size_t index = 0;
    std::string rest;
    fields >> index;
    std::getline(fields >> std::ws, rest);
    if (index >= ref.size() || rest != ref[index].ToString()) {
      report.Fail("golden mismatch at plan " + std::to_string(index) +
                  ": expected '" + rest + "', got '" +
                  (index < ref.size() ? ref[index].ToString() : "none") + "'");
    }
    ++lines;
  }
  if (lines != ref.size()) {
    report.Fail("golden file has " + std::to_string(lines) +
                " plans, run has " + std::to_string(ref.size()));
  }
}

// --- Traced run --------------------------------------------------------------

/// In-memory span recorder, written as Chrome trace JSON at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t trace;   // one id per request execution
    int parent;       // index into spans_, -1 for roots
    int64_t start_ns;
    int64_t end_ns;
  };

  int Begin(const char* name, uint64_t trace, int parent) {
    spans_.push_back({name, trace, parent, Now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = Now(); }
  double DurationMs(int id) const {
    return (spans_[id].end_ns - spans_[id].start_ns) / 1e6;
  }

  /// Self time per span name (duration minus time its children cover),
  /// summed over spans whose trace id lies in [first, last).
  std::map<std::string, double> SelfMs(uint64_t first, uint64_t last) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.trace < first || s.trace >= last) continue;
      out[s.name] += (s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":%" PRIu64
                    ",\"parent\":%d}}%s\n",
                    s.name, (s.start_ns - origin_) / 1e3,
                    (s.end_ns - s.start_ns) / 1e3, s.trace, s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  int64_t origin_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count();
  std::vector<Span> spans_;
};

struct PassTotals {
  std::vector<double> layered_ms;  // per plan, root "query" span
  std::vector<double> execute_ms;  // per plan, untraced Execute
  uint64_t first_trace = 0, last_trace = 0;
};

/// Runs every plan once layer by layer (plan -> cone -> oracle -> TBS) and
/// once through Execute, checking that both answers agree. The order
/// alternates per plan, so neither side always finds the pages the other
/// just read.
PassTotals LayeredPass(ReachabilityEngine& engine, const Workload& w,
                       const std::vector<Request>& requests, Tracer& tracer,
                       uint64_t* next_trace, std::vector<Digest>* answers,
                       Report& report) {
  PassTotals totals;
  totals.first_trace = *next_trace;
  const RoadNetwork& net = engine.network();
  answers->assign(requests.size(), Digest{});
  for (size_t i = 0; i < requests.size(); ++i) {
    // Pin the snapshot Execute will read (live ingestion is quiet here).
    SnapshotRef snap;
    const ConIndex* con = &engine.con_index();
    const SpeedProfile* profile = &engine.speed_profile();
    if (engine.live_manager() != nullptr) {
      snap = engine.live_manager()->Acquire();
      con = &snap.con_index();
      profile = &snap.profile();
    }
    StatusOr<QueryPlan> plan = PlanRequest(engine.planner(), requests[i]);
    if (!plan.ok()) Die("traced plan: " + plan.status().ToString());

    auto layered = [&]() -> Digest {
      if (w.cold) engine.ResetIoStats(/*drop_cache=*/true);
      uint64_t trace = (*next_trace)++;
      int root = tracer.Begin("query", trace, -1);
      int span = tracer.Begin("plan", trace, root);
      StatusOr<QueryPlan> p = PlanRequest(engine.planner(), requests[i]);
      tracer.End(span);
      if (!p.ok()) Die("traced plan: " + p.status().ToString());
      span = tracer.Begin("cone", trace, root);
      StatusOr<BoundingRegions> regions =
          p->IsMultiLocation()
              ? MqmbSearch(net, *con, *profile, p->AllStartSegments(),
                           p->start_tod, p->duration)
              : SqmbSearchSet(net, *con, p->location_starts[0], p->start_tod,
                              p->duration);
      tracer.End(span);
      if (!regions.ok()) Die("traced cone: " + regions.status().ToString());
      span = tracer.Begin("oracle", trace, root);
      StatusOr<ReachabilityProbability> oracle =
          ReachabilityProbability::Create(
              engine.st_index(), regions->start_segments, p->start_tod,
              engine.delta_t_seconds(), p->duration);
      tracer.End(span);
      if (!oracle.ok()) Die("traced oracle: " + oracle.status().ToString());
      std::vector<SegmentId> region;
      span = tracer.Begin("tbs", trace, root);
      if (!oracle->StartHasNoTraffic()) {
        StatusOr<TbsOutcome> tbs =
            TraceBackSearch(net, *regions, p->prob, *oracle);
        if (!tbs.ok()) Die("traced tbs: " + tbs.status().ToString());
        region = std::move(tbs->region);
      }
      tracer.End(span);
      tracer.End(root);
      totals.layered_ms.push_back(tracer.DurationMs(root));
      return DigestOf(region, net.LengthOfSegments(region));
    };
    auto executed = [&]() -> Digest {
      if (w.cold) engine.ResetIoStats(/*drop_cache=*/true);
      int root = tracer.Begin("execute", (*next_trace)++, -1);
      StatusOr<RegionResult> result = engine.executor().Execute(*plan);
      tracer.End(root);
      totals.execute_ms.push_back(tracer.DurationMs(root));
      if (!result.ok()) Die("traced execute: " + result.status().ToString());
      return DigestOf(*result);
    };

    Digest by_layers, by_execute;
    if (i % 2 == 0) {
      by_layers = layered();
      by_execute = executed();
    } else {
      by_execute = executed();
      by_layers = layered();
    }
    (*answers)[i] = by_execute;
    if (by_layers != by_execute) {
      report.Fail("layered answer differs from Execute for plan " +
                  std::to_string(i));
    }
  }
  totals.last_trace = *next_trace;
  return totals;
}

/// Calls/s of `fn(k)` over `threads` threads for about `budget_s`.
template <typename Fn>
double Throughput(int threads, double budget_s, size_t items, Fn fn) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> calls{0};
  Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t n = 0;
      for (size_t k = t % items; !stop.load(std::memory_order_relaxed);
           k = (k + threads) % items) {
        fn(k);
        ++n;
      }
      calls += n;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(budget_s));
  stop.store(true);
  for (std::thread& t : pool) t.join();
  return calls.load() / (MsSince(start) / 1000.0);
}

template <typename Fn>
double MedianOf(int reps, Fn measure) {
  std::vector<double> values;
  for (int r = 0; r < reps; ++r) values.push_back(measure());
  return Median(values);
}

/// Reads/s right after a pool drop: `threads` threads split the pairs.
double ColdReadRate(ReachabilityEngine& engine, int threads,
                    const std::vector<std::pair<SegmentId, SlotId>>& pairs) {
  engine.ResetIoStats(/*drop_cache=*/true);
  Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t k = t; k < pairs.size(); k += threads) {
        if (!engine.st_index().ReadTimeList(pairs[k].first, pairs[k].second)
                 .ok()) {
          Die("probe read failed");
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return pairs.size() / (MsSince(start) / 1000.0);
}

void TracedRun(ReachabilityEngine& engine, const Workload& w,
               const std::vector<Request>& requests,
               const std::vector<Digest>& reference, uint64_t seed, bool smoke,
               Tracer& tracer, uint64_t* next_trace, const PassTotals& cold,
               Report& report) {
  std::vector<Digest> answers;
  PassTotals warm = LayeredPass(engine, w, requests, tracer, next_trace,
                                &answers, report);
  if (answers != reference) {
    report.Fail("warm traced pass answers differ from the cold pass");
  }
  const double n = static_cast<double>(requests.size());
  auto self = tracer.SelfMs(warm.first_trace, warm.last_trace);
  auto cold_self = tracer.SelfMs(cold.first_trace, cold.last_trace);
  double layered_sum = 0, execute_sum = 0;
  for (double v : warm.layered_ms) layered_sum += v;
  for (double v : warm.execute_ms) execute_sum += v;
  double layers = self["cone"] + self["oracle"] + self["tbs"];
  report.Add("query.plan_us", 1000 * self["plan"] / n, "us");
  report.Add("query.tbs_ms", self["tbs"] / n, "ms");
  report.Add("query.tbs_share", self["tbs"] / layered_sum, "fraction");
  report.Add("query.oracle_ms", self["oracle"] / n, "ms");
  report.Add("search.cone_ms", self["cone"] / n, "ms");
  report.Add("search.cone_share", self["cone"] / layered_sum, "fraction");
  report.Add("index.con_build_ms", (cold_self["cone"] - self["cone"]) / n,
             "ms");
  report.Add("core.front_door_ms", (execute_sum - layers) / n, "ms");
  report.Add("core.unattributed_frac", (execute_sum - layers) / execute_sum,
             "fraction");
  std::vector<double> layered = warm.layered_ms, executed = warm.execute_ms;
  std::sort(layered.begin(), layered.end());
  std::sort(executed.begin(), executed.end());
  report.Add("bench.trace_overhead_frac",
             Percentile(layered, 0.5) / Percentile(executed, 0.5) - 1,
             "fraction");

  // Storage read path: seeded (segment, slot) pairs with traffic.
  SeededRng rng(StreamSeed(seed, 4));
  const StIndex& index = engine.st_index();
  std::vector<std::pair<SegmentId, SlotId>> pairs;
  const size_t want = smoke ? 256 : 1024;
  while (pairs.size() < want) {
    auto s = static_cast<SegmentId>(rng.Below(engine.network().NumSegments()));
    SlotId slot = static_cast<SlotId>(rng.Below(index.slots_per_day()));
    if (index.HasTraffic(s, slot)) pairs.emplace_back(s, slot);
  }
  // Probes are short, so each rate is the median of five.
  double miss1 = MedianOf(5, [&] { return ColdReadRate(engine, 1, pairs); });
  double miss4 = MedianOf(5, [&] { return ColdReadRate(engine, 4, pairs); });
  auto read = [&](size_t k) {
    if (!index.ReadTimeList(pairs[k].first, pairs[k].second).ok()) {
      Die("probe read failed");
    }
  };
  for (size_t k = 0; k < pairs.size(); ++k) read(k);  // fill the pool
  auto reads_per_s = [&](int threads) {
    return MedianOf(5, [&] { return Throughput(threads, 0.05, pairs.size(),
                                               read); });
  };
  double hit1 = reads_per_s(1), hit4 = reads_per_s(4);
  report.Add("storage.read_miss_us", 1e6 / miss1, "us");
  report.Add("storage.read_hit_us", 1e6 / hit1, "us");
  report.Add("storage.read_miss_scaling_4t", miss4 / miss1, "ratio");
  report.Add("storage.read_hit_scaling_4t", hit4 / hit1, "ratio");

  // Cone expansion alone on the warm Con-Index.
  std::vector<QueryPlan> s_plans;
  for (const Request& r : requests) {
    if (r.locations.size() != 1) continue;
    auto plan = PlanRequest(engine.planner(), r);
    if (plan.ok()) s_plans.push_back(*plan);
  }
  SnapshotRef snap;
  const ConIndex* con = &engine.con_index();
  if (engine.live_manager() != nullptr) {
    snap = engine.live_manager()->Acquire();
    con = &snap.con_index();
  }
  auto cone = [&](size_t k) {
    const QueryPlan& p = s_plans[k];
    if (!SqmbSearchSet(engine.network(), *con, p.location_starts[0],
                       p.start_tod, p.duration)
             .ok()) {
      Die("probe cone failed");
    }
  };
  auto cones_per_s = [&](int threads) {
    return MedianOf(5, [&] { return Throughput(threads, 0.05, s_plans.size(),
                                               cone); });
  };
  double cone1 = cones_per_s(1), cone4 = cones_per_s(4);
  report.Add("search.cone_scaling_4t", cone4 / cone1, "ratio");

  // Diagnostic: sampled plans whose exhaustive-search region escapes the
  // indexed one. Not gated; the golden digests are the oracle.
  const SpeedProfile* profile =
      snap.valid() ? &snap.profile() : &engine.speed_profile();
  size_t sampled = 0, escaped = 0;
  Clock::time_point es_start = Clock::now();
  SeededRng es_rng(StreamSeed(seed, 5));
  std::vector<size_t> order(s_plans.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  for (size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[es_rng.Below(k)]);
  }
  for (size_t k : order) {
    if (sampled == 50 || MsSince(es_start) > 4000) break;
    const QueryPlan& p = s_plans[k];
    auto es = ExhaustiveSearch(
        index, *profile,
        SQuery{p.locations[0], p.start_tod, p.duration, p.prob},
        engine.delta_t_seconds(), p.location_starts[0]);
    auto indexed = engine.executor().Execute(p);
    if (!es.ok() || !indexed.ok()) Die("ES diagnostic query failed");
    ++sampled;
    if (!std::includes(indexed->segments.begin(), indexed->segments.end(),
                       es->segments.begin(), es->segments.end())) {
      ++escaped;
    }
  }
  report.Add("query.es_escape_frac",
             sampled ? static_cast<double>(escaped) / sampled : 0, "fraction");
  report.Add("query.es_sampled", static_cast<double>(sampled), "count");
}

/// Live-tier metrics, differenced over the window; zero on static
/// workloads. Stops ingestion, then times recovery of the run's journal.
void ReportLive(ReachabilityEngine& engine, const Workload& w,
                const WindowResult& window, Report& report) {
  const double secs = window.elapsed_s;
  const auto& ib = window.ingest_before;
  const auto& ia = window.ingest_after;
  const auto& lb = window.live_before;
  const auto& la = window.live_after;
  const double published = static_cast<double>(ia.published - ib.published);
  const double publishes = static_cast<double>(la.published - lb.published);
  report.Add("live.publishes_per_s", publishes / secs, "1/s");
  report.Add("live.quiet_publish_frac",
             publishes > 0
                 ? (la.publishes_quiet - lb.publishes_quiet) / publishes
                 : 0,
             "fraction");
  report.Add("live.slots_invalidated",
             static_cast<double>(la.slots_invalidated - lb.slots_invalidated),
             "count");
  report.Add("live.slots_partially_invalidated",
             static_cast<double>(la.slots_partially_invalidated -
                                 lb.slots_partially_invalidated),
             "count");
  const double obs = static_cast<double>(ia.offered - ib.offered);
  report.Add("live.wal_bytes_per_obs",
             obs > 0 ? (window.wal_after.wal_bytes -
                        window.wal_before.wal_bytes) / obs
                     : 0,
             "B/obs");
  report.Add("live.wal_syncs_per_s",
             (window.wal_after.wal_syncs - window.wal_before.wal_syncs) / secs,
             "1/s");
  report.Add("live.queue_max", static_cast<double>(window.queue_max),
             "count");
  if (!w.live) {
    report.Add("live.replay_batches", 0, "count");
    return;
  }
  // Times exist only here, so they stay out of BENCHMARK.json: a time that
  // reads 0 on three workloads would look constant.
  report.Add("live.staleness_ms",
             published > 0 ? (ia.mean_staleness_ms * ia.published -
                              ib.mean_staleness_ms * ib.published) /
                                 published
                           : 0,
             "ms");
  engine.ingestor()->Stop();
  Clock::time_point start = Clock::now();
  auto recovered = RecoveryManager::Recover(engine.journal()->dir());
  if (!recovered.ok()) Die("recover: " + recovered.status().ToString());
  EpochManager epochs;
  LiveProfileManager replayed(epochs, engine.speed_profile(),
                              engine.con_index());
  auto replay = RecoveryManager::Replay(*recovered, replayed);
  if (!replay.ok()) Die("replay: " + replay.status().ToString());
  report.Add("live.recover_ms", MsSince(start), "ms");
  report.Add("live.replay_batches",
             static_cast<double>(recovered->replay_batches()), "count");
}

// --- Main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string data_dir, work_dir, json_out, trace_out, golden_dir;
  bool write_golden = false;
  bool smoke = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--data-dir") a.data_dir = value();
    else if (flag == "--work-dir") a.work_dir = value();
    else if (flag == "--json") a.json_out = value();
    else if (flag == "--trace") a.trace_out = value();
    else if (flag == "--golden-dir") a.golden_dir = value();
    else if (flag == "--write-golden") a.write_golden = true;
    else if (flag == "--smoke") a.smoke = true;
    else Die("unknown flag " + flag);
  }
  if (a.data_dir.empty() || a.work_dir.empty()) {
    Die("--data-dir and --work-dir are required");
  }
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

StatusOr<Dataset> LoadOrBuildDataset(const std::string& dir, bool smoke) {
  if (DatasetExists(dir)) {
    auto loaded = LoadDataset(dir);
    if (loaded.ok()) return loaded;
    std::fprintf(stderr, "bench_strr: cached dataset unreadable (%s)\n",
                 loaded.status().ToString().c_str());
  }
  DatasetOptions opt = BenchDatasetOptions();
  opt.fleet.num_days = kDatasetDays;
  if (smoke) {
    opt = TestDatasetOptions();
    opt.fleet.num_taxis = 80;
    opt.fleet.num_days = 15;
  }
  std::fprintf(stderr, "bench_strr: generating the dataset (once)...\n");
  STRR_ASSIGN_OR_RETURN(Dataset dataset, BuildDataset(opt));
  fs::remove_all(dir);
  STRR_RETURN_IF_ERROR(SaveDataset(dataset, dir));
  // Answer from the saved copy, as every later run does: the in-memory
  // dataset is not bit-identical to its round trip, and answers differ.
  return LoadDataset(dir);
}

uint64_t DatasetFingerprint(const Dataset& d) {
  std::vector<SegmentId> all(d.network.NumSegments());
  for (size_t s = 0; s < all.size(); ++s) all[s] = static_cast<SegmentId>(s);
  Digest g = DigestOf(all, d.network.LengthOfSegments(all));
  uint64_t h = g.fnv ^ static_cast<uint64_t>(g.length_m * 1000);
  h = (h ^ d.store->NumTrajectories()) * 0x100000001b3ULL;
  return (h ^ d.num_trips) * 0x100000001b3ULL;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Die("unknown workload '" + args.workload + "'");
  const Workload& w = *found;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (nproc < 4) {
    std::fprintf(stderr,
                 "bench_strr: WARNING: %ld CPUs online; the workloads run up "
                 "to 4 load threads, so numbers are not comparable with a "
                 "4-CPU host\n", nproc);
  }
  SetLogLevel(LogLevel::kWarning);

  StatusOr<Dataset> dataset = LoadOrBuildDataset(
      args.data_dir + (args.smoke ? "/smoke" : "/full"), args.smoke);
  if (!dataset.ok()) Die("dataset: " + dataset.status().ToString());
  const std::string work_dir = args.work_dir + "/" + w.name;
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);

  std::vector<Request> requests;
  const uint64_t plan_seed = w.downtown ? kFixtureSeed : args.seed;
  auto make_requests = [&](const ReachabilityEngine& engine) {
    std::vector<XyPoint> candidates = CandidateLocations(
        engine, *dataset, w.downtown ? 2500.0 : 0.0, HMS(8));
    if (candidates.size() < kRings) Die("too few candidate query locations");
    size_t count = w.downtown ? kHotPlans : kCityPlans;
    if (args.smoke) count = w.downtown ? 16 : 48;
    return MakeRequests(candidates, count, w.downtown, plan_seed);
  };

  Report report;
  const bool traced = !args.trace_out.empty();
  const int reps = traced ? 1 : kSetupReps;
  // Each set-up is followed by its share of the measured window, so the
  // measurement spreads over the whole run and a few seconds of noise from
  // a neighbour on a shared host touch one share only. The traced run sets
  // up once, without the warm-up, so its first pass sees a cold Con-Index.
  std::vector<double> setup_s, rss_mb;
  std::vector<Digest> reference;
  WindowResult pooled, window;
  Setup setup;
  Tracer tracer;
  uint64_t next_trace = 0;
  PassTotals cold_pass;
  size_t tables_built = 0;
  for (int rep = 0; rep < reps; ++rep) {
    setup = Setup{};
    malloc_trim(0);
    const double rss_before = VmRssMb();
    setup = SetUpOnce(*dataset, w, work_dir, !traced, make_requests, &requests);
    setup_s.push_back(setup.seconds);
    ReachabilityEngine& engine = *setup.engine;
    if (traced) {
      cold_pass = LayeredPass(engine, w, requests, tracer, &next_trace,
                              &setup.reference, report);
      LiveProfileManager* live = engine.live_manager();
      setup.reference_version = live != nullptr ? live->version() : 0;
      tables_built = live != nullptr
                         ? live->Acquire().con_index().MaterializedTables()
                         : engine.con_index().MaterializedTables();
    }
    if (rep == 0) {
      reference = setup.reference;
    } else if (setup.reference != reference) {
      report.Fail("set-up " + std::to_string(rep + 1) +
                  " answers differ from set-up 1");
    }
    window = RunWindow(engine, w, requests, setup.reference,
                       setup.reference_version, args.seconds / reps,
                       StreamSeed(args.seed, rep), report);
    malloc_trim(0);  // count pages the engine holds, not allocator slack
    rss_mb.push_back(VmRssMb() - rss_before);
    Merge(pooled, window);
  }
  std::sort(pooled.latency_ms.begin(), pooled.latency_ms.end());
  ReachabilityEngine& engine = *setup.engine;
  const double posting_mb =
      fs::file_size(work_dir + "/st_index_postings.bin") / 1048576.0;
  const double answered = static_cast<double>(pooled.latency_ms.size());

  if (!args.smoke) {
    std::string golden = GoldenPath(args.golden_dir, w, plan_seed);
    if (args.write_golden) {
      WriteGolden(golden, reference);
    } else if (plan_seed == 1) {
      CheckGolden(golden, reference, report);
    }
  }

  if (!traced) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("qps", answered / pooled.elapsed_s, "queries/s");
    report.Add("latency_p50_ms", Percentile(pooled.latency_ms, 0.50), "ms");
    report.Add("latency_p95_ms", Percentile(pooled.latency_ms, 0.95), "ms");
    report.Add("engine_rss_mb", Median(rss_mb), "MiB");
  } else {
    const double q = std::max(1.0, answered);
    const StorageStats& io = window.sums.io;
    report.Add("bench.samples", answered, "count");
    report.Add("storage.pool_hit_rate",
               io.TotalRequests() ? static_cast<double>(io.cache_hits) /
                                        io.TotalRequests()
                                  : 0,
               "fraction");
    report.Add("storage.disk_reads_per_query", io.disk_page_reads / q,
               "pages/query");
    report.Add("query.segments_verified", window.sums.segments_verified / q,
               "count/query");
    report.Add("query.time_lists_read", window.sums.time_lists_read / q,
               "count/query");
    report.Add("search.segments_expanded", window.sums.segments_expanded / q,
               "count/query");
    report.Add("search.heap_pops", window.sums.heap_pops / q, "count/query");
    report.Add("index.con_tables_built", static_cast<double>(tables_built),
               "count");
    TracedRun(engine, w, requests, reference, args.seed, args.smoke, tracer,
              &next_trace, cold_pass, report);
    ReportLive(engine, w, window, report);
    if (!tracer.Write(args.trace_out)) Die("cannot write " + args.trace_out);
  }

  const uint64_t attempted = pooled.attempted + pooled.obs_offered;
  const uint64_t failed = pooled.failed + pooled.obs_failed;
  std::fprintf(stderr,
               "bench_strr: %s seed %" PRIu64 ": %.0f answers in %.2f s, %s\n",
               w.name, args.seed, answered, pooled.elapsed_s,
               report.correct() ? "all answers correct" : "CHECK FAILED");

  std::ostringstream json;
  json << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
       << ",\"seconds\":" << args.seconds
       << ",\"correct\":" << (report.correct() ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json << (i ? "," : "") << "\"" << m.name << "\":{\"value\":" << value
         << ",\"unit\":\"" << m.unit << "\"}";
  }
  json << "},\"errors\":[";
  for (size_t i = 0; i < report.errors().size(); ++i) {
    json << (i ? "," : "") << "\"" << JsonEscape(report.errors()[i]) << "\"";
  }
  json << "],\"host\":{\"nproc\":" << nproc << ",\"hardware_concurrency\":"
       << std::thread::hardware_concurrency() << ",\"compiler\":\""
       << JsonEscape(__VERSION__) << "\",\"build_type\":\""
       << PERFBENCH_BUILD_TYPE << "\",\"dataset_fingerprint\":\"";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, DatasetFingerprint(*dataset));
  json << fp << "\",\"segments\":" << dataset->network.NumSegments()
       << ",\"trajectories\":" << dataset->store->NumTrajectories()
       << ",\"posting_mb\":" << posting_mb
       << ",\"plans\":" << requests.size() << "}}";
  if (!args.json_out.empty()) {
    std::ofstream out(args.json_out);
    out << json.str() << '\n';
    if (!out) Die("cannot write " + args.json_out);
  }
  std::printf("%s\n", json.str().c_str());
  setup = Setup{};
  fs::remove_all(work_dir);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace strr

int main(int argc, char** argv) { return strr::perfbench::Main(argc, argv); }
