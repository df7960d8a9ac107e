#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>

namespace strr::obs {

namespace internal {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace internal

namespace {

constexpr int kFirstOctave = 5;  // 2^5 == Histogram::kLinearMax

/// Debug-only guard: names are exported verbatim, so they must already be
/// valid Prometheus metric names, optionally carrying one canonical
/// `{k="v",...}` label suffix (see MetricsRegistry::CanonicalLabels).
[[maybe_unused]] bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  size_t base_end = name.find('{');
  if (base_end == std::string::npos) base_end = name.size();
  if (base_end == 0) return false;
  for (size_t i = 0; i < base_end; ++i) {
    char c = name[i];
    bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 c == '_' || c == ':';
    bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  if (base_end < name.size() && name.back() != '}') return false;
  return true;
}

/// Splits a series name into its base name and the inner label list (the
/// suffix without braces, "" when unlabeled).
void SplitSeries(const std::string& name, std::string* base,
                 std::string* inner) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    inner->clear();
    return;
  }
  *base = name.substr(0, brace);
  *inner = name.substr(brace + 1, name.size() - brace - 2);
}

/// JSON string escape for series names (label values may hold quotes).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(static_cast<size_t>(n),
                                               sizeof(buf) - 1));
}

}  // namespace

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kLinearMax) return static_cast<size_t>(value);
  int msb = 63 - std::countl_zero(value);
  if (msb >= kMaxPow2) return kNumBuckets - 1;  // overflow bucket
  uint64_t sub = (value >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
  return kLinearMax +
         static_cast<size_t>(msb - kFirstOctave) * (1u << kSubBits) +
         static_cast<size_t>(sub);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < kLinearMax) return index;
  if (index >= kNumBuckets - 1) return uint64_t{1} << kMaxPow2;
  size_t rel = index - kLinearMax;
  int octave = kFirstOctave + static_cast<int>(rel >> kSubBits);
  uint64_t sub = rel & ((1u << kSubBits) - 1);
  return (uint64_t{1} << octave) + (sub << (octave - kSubBits));
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index < kLinearMax) return index + 1;
  if (index >= kNumBuckets - 1) return uint64_t{1} << kMaxPow2;
  size_t rel = index - kLinearMax;
  int octave = kFirstOctave + static_cast<int>(rel >> kSubBits);
  return BucketLowerBound(index) + (uint64_t{1} << (octave - kSubBits));
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot out;
  for (const Shard& s : shards_) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::Sum() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::PercentileOf(const Snapshot& snap, double q) {
  // Bucket totals can momentarily exceed the count total under concurrent
  // writers (bucket and count are bumped with two relaxed ops); summing
  // the buckets keeps rank and cumulative walk consistent with each other.
  uint64_t count = 0;
  for (uint64_t b : snap.buckets) count += b;
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    uint64_t in_bucket = snap.buckets[i];
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= target) {
      double before = static_cast<double>(cumulative - in_bucket);
      double fraction = (target - before) / static_cast<double>(in_bucket);
      if (fraction < 0.0) fraction = 0.0;
      if (fraction > 1.0) fraction = 1.0;
      double lower = static_cast<double>(BucketLowerBound(i));
      double upper = static_cast<double>(BucketUpperBound(i));
      return lower + fraction * (upper - lower);
    }
  }
  return static_cast<double>(BucketLowerBound(kNumBuckets - 1));
}

double Histogram::Percentile(double q) const { return PercentileOf(Snap(), q); }

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: instrumentation sites hold references from static
  // initializers and may fire during static destruction (pool threads).
  static MetricsRegistry* g = new MetricsRegistry();
  return *g;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  assert(ValidMetricName(name));
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(&enabled_);
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  assert(ValidMetricName(name));
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(&enabled_);
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  assert(ValidMetricName(name));
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(&enabled_);
  return *slot;
}

std::string MetricsRegistry::CanonicalLabels(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : sorted) {
    if (!first) out.push_back(',');
    first = false;
    out += key;
    out += "=\"";
    for (char c : value) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    out += "\"";
  }
  out.push_back('}');
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return GetCounter(name + CanonicalLabels(labels));
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  return GetGauge(name + CanonicalLabels(labels));
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  return GetHistogram(name + CanonicalLabels(labels));
}

void MetricsRegistry::DumpPrometheus(std::string* out) const {
  // CI overhead-gate negative test: an injected scrape latency must trip
  // the >5% qps gate. Read per call — the scrape path is cold by design.
  if (const char* ms = std::getenv("STRR_OBS_SCRAPE_SLEEP_MS")) {
    long sleep_ms = std::atol(ms);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  // One `# TYPE` line per base name: labeled series share the base metric.
  // '{' sorts after '_' so "foo_x" can interleave between "foo" and
  // "foo{...}" in the map — dedupe TYPE lines with a seen-set instead of
  // relying on contiguity.
  std::string base;
  std::string inner;
  std::set<std::string> typed;
  for (const auto& [name, counter] : counters_) {
    SplitSeries(name, &base, &inner);
    if (typed.insert(base).second) {
      AppendF(out, "# TYPE %s counter\n", base.c_str());
    }
    out->append(name);
    AppendF(out, " %llu\n", static_cast<unsigned long long>(counter->Value()));
  }
  typed.clear();
  for (const auto& [name, gauge] : gauges_) {
    SplitSeries(name, &base, &inner);
    if (typed.insert(base).second) {
      AppendF(out, "# TYPE %s gauge\n", base.c_str());
    }
    out->append(name);
    AppendF(out, " %lld\n", static_cast<long long>(gauge->Value()));
  }
  typed.clear();
  for (const auto& [name, hist] : histograms_) {
    SplitSeries(name, &base, &inner);
    if (typed.insert(base).second) {
      AppendF(out, "# TYPE %s histogram\n", base.c_str());
    }
    // The series' own labels splice ahead of `le` in each bucket line.
    std::string bucket_prefix = base + "_bucket{";
    if (!inner.empty()) bucket_prefix += inner + ",";
    Histogram::Snapshot snap = hist->Snap();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;  // sparse: only boundaries that
      cumulative += snap.buckets[i];       // advance the cumulative count
      if (i == Histogram::kNumBuckets - 1) break;  // overflow -> +Inf only
      out->append(bucket_prefix);
      AppendF(out, "le=\"%llu\"} %llu\n",
              static_cast<unsigned long long>(Histogram::BucketUpperBound(i)),
              static_cast<unsigned long long>(cumulative));
    }
    out->append(bucket_prefix);
    AppendF(out, "le=\"+Inf\"} %llu\n",
            static_cast<unsigned long long>(cumulative));
    std::string suffix = inner.empty() ? "" : "{" + inner + "}";
    out->append(base).append("_sum").append(suffix);
    AppendF(out, " %llu\n", static_cast<unsigned long long>(snap.sum));
    out->append(base).append("_count").append(suffix);
    AppendF(out, " %llu\n", static_cast<unsigned long long>(cumulative));
  }
}

void MetricsRegistry::DumpJson(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->append("{\"counters\":{");
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    AppendF(out, "%s\"%s\":%llu", first ? "" : ",", JsonEscape(name).c_str(),
            static_cast<unsigned long long>(counter->Value()));
    first = false;
  }
  out->append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    AppendF(out, "%s\"%s\":%lld", first ? "" : ",", JsonEscape(name).c_str(),
            static_cast<long long>(gauge->Value()));
    first = false;
  }
  out->append("},\"histograms\":{");
  first = true;
  for (const auto& [name, hist] : histograms_) {
    Histogram::Snapshot snap = hist->Snap();
    AppendF(out, "%s\"%s\":{\"count\":%llu,\"sum\":%llu", first ? "" : ",",
            JsonEscape(name).c_str(),
            static_cast<unsigned long long>(snap.count),
            static_cast<unsigned long long>(snap.sum));
    AppendF(out, ",\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f,\"p999\":%.3f}",
            Histogram::PercentileOf(snap, 0.50),
            Histogram::PercentileOf(snap, 0.90),
            Histogram::PercentileOf(snap, 0.99),
            Histogram::PercentileOf(snap, 0.999));
    first = false;
  }
  out->append("}}");
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace strr::obs
