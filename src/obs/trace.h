// Per-query trace spans, a bounded flight recorder, and a slow-query log.
//
// One query produces one span tree: the front door opens a root
// `QueryTrace` and each pipeline stage underneath (plan, admission wait,
// cache lookup, snapshot pin, expansion rounds, TBS, cache insert) opens
// a RAII `TraceSpan`. Spans propagate through a thread_local active-buffer
// pointer — the same idiom as storage's ScopedIoCounters — so call sites
// never thread a context object through the stack, and a span constructed
// on a thread with no active query trace is a no-op. Work fanned out to
// ThreadPool workers carries the active trace along: Submit() captures a
// TaskTraceHandle and the worker runs under a ScopedTaskTrace whose local
// buffer merges into the parent query's buffer when the task finishes, so
// scatter-gather spans show per-worker imbalance instead of collapsing
// onto the orchestrating thread. The merge contract: the submitter joins
// the task's future before the root QueryTrace closes (true for every
// in-tree fan-out — m-query legs and batch futures are both joined
// inside the query).
//
// Lifecycle and cost:
//  * Off (default): every QueryTrace/TraceSpan constructor is one relaxed
//    atomic load and a branch; nothing allocates, nothing locks, and query
//    results are bit-identical to an untraced build.
//  * On: a traced query buffers up to kMaxEventsPerQuery completed spans
//    locally (two steady-clock reads per span), then pushes them into the
//    global ring under one mutex acquisition at query end.
//
// Export surfaces:
//  * Flight recorder — a bounded ring of the most recent span events from
//    sampled queries (1-in-N knob), always recording while tracing is on;
//    DumpChromeTrace() renders it as Chrome trace-event JSON that loads
//    directly into chrome://tracing or https://ui.perfetto.dev.
//  * Slow-query log — any query whose wall time exceeds the threshold
//    knob logs its full span tree through STRR_LOG(Warning) (util/logging
//    is the one structured sink) and is force-recorded into the ring,
//    sampled or not.
#ifndef STRR_OBS_TRACE_H_
#define STRR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace strr::obs {

/// One completed span. `name` must be a string literal (stored unowned).
struct TraceEvent {
  const char* name = nullptr;
  uint64_t query_id = 0;   ///< per-process sequence number of the query
  uint32_t tid = 0;        ///< obs thread index of the recording thread
  uint16_t depth = 0;      ///< nesting depth under the query root (root=0)
  int64_t start_us = 0;    ///< steady-clock µs since tracer epoch
  int64_t dur_us = 0;
  uint64_t arg = 0;        ///< optional payload (round index, sizes)
};

struct TracerOptions {
  /// Export every Nth query's spans to the flight recorder; 0 = none.
  uint32_t sample_n = 0;
  /// Flight-recorder ring capacity in span events.
  size_t flight_recorder_events = 4096;
  /// Queries slower than this log their span tree; 0 = off.
  double slow_query_ms = 0.0;
};

namespace internal {

/// Per-query span buffer, owned by the root QueryTrace frame and reached
/// through a thread_local pointer while that query runs. Pool workers run
/// under task-local child buffers (base_depth > 0) whose events merge into
/// the root buffer under events_mu when the task finishes.
struct TraceBuffer {
  struct OpenSpan {
    const char* name;
    int64_t start_us;
    uint64_t arg;
    uint16_t depth;
  };
  std::vector<TraceEvent> events;
  std::vector<OpenSpan> stack;
  uint64_t query_id = 0;
  uint32_t dropped = 0;
  bool sampled = false;
  /// Depth of this buffer's spans under the query root (0 for the root
  /// buffer; the capturing span's depth for a task-local child).
  uint16_t base_depth = 0;
  /// Serializes event pushes: the owner thread closes spans while joined
  /// tasks merge their child buffers back in.
  std::mutex events_mu;
};

TraceBuffer* ActiveBuffer();
void SetActiveBuffer(TraceBuffer* buf);
void OpenSpan(TraceBuffer* buf, const char* name, uint64_t arg);
void CloseSpan(TraceBuffer* buf);

/// Snapshot of the submitting thread's active trace, captured inside
/// ThreadPool::Submit. parent == nullptr means "no active trace" (the
/// task runs untraced).
struct TaskTraceHandle {
  TraceBuffer* parent = nullptr;
  uint16_t depth = 0;  ///< effective depth of the capturing span
};

TaskTraceHandle CaptureTaskTrace();

/// RAII frame a pool worker runs a traced task under: activates a local
/// child buffer for the task's spans and merges them into the parent
/// query buffer on destruction. Requires handle.parent != nullptr; the
/// submitter must join the task before the parent QueryTrace closes.
class ScopedTaskTrace {
 public:
  explicit ScopedTaskTrace(const TaskTraceHandle& handle);
  ScopedTaskTrace(const ScopedTaskTrace&) = delete;
  ScopedTaskTrace& operator=(const ScopedTaskTrace&) = delete;
  ~ScopedTaskTrace();

 private:
  TraceBuffer* parent_;
  TraceBuffer* prev_;
  TraceBuffer local_;
};

}  // namespace internal

/// Process-global trace sink: sampling policy, flight-recorder ring and
/// slow-query log. Configured once by the engine (EngineOptions knobs);
/// all methods are thread-safe.
class Tracer {
 public:
  static Tracer& Global();

  /// Enables tracing when the options ask for any sink (sample_n > 0 or
  /// slow_query_ms > 0); disables it otherwise. Resizes the ring.
  void Configure(const TracerOptions& options);
  void Disable() { Configure(TracerOptions{}); }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint32_t sample_n() const {
    return sample_n_.load(std::memory_order_relaxed);
  }
  int64_t slow_query_us() const {
    return slow_us_.load(std::memory_order_relaxed);
  }

  /// Monotonic µs since the tracer epoch (process start, first use).
  static int64_t NowUs();

  /// Oldest-first copy of the flight-recorder ring.
  std::vector<TraceEvent> FlightRecorderSnapshot() const;

  /// Renders the flight recorder as Chrome trace-event JSON ("X" complete
  /// events; pid = query id so chrome://tracing groups each query's span
  /// tree into its own lane).
  void DumpChromeTrace(std::string* out) const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Total span events ever pushed into the ring (monotonic; exceeds the
  /// ring capacity once wraparound discards oldest events).
  uint64_t events_recorded() const;
  /// Spans dropped because a single query overflowed its per-query buffer.
  uint64_t events_dropped() const;
  uint64_t slow_queries() const;
  /// Human-readable span tree of the most recent slow query ("" if none).
  std::string last_slow_report() const;

  /// Clears the ring and counters; keeps the configuration.
  void ResetForTest();

  // --- Internal (QueryTrace plumbing) ---------------------------------------

  /// Claims a query id and decides sampling for a new root trace.
  uint64_t BeginQuery(bool* sampled);
  /// Ingests a finished query's buffer: ring push when sampled (or slow),
  /// slow-query log when over threshold.
  void FinishQuery(internal::TraceBuffer* buf, int64_t wall_us);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> sample_n_{0};
  std::atomic<int64_t> slow_us_{0};
  std::atomic<uint64_t> next_query_id_{0};
  std::atomic<uint64_t> events_recorded_{0};
  std::atomic<uint64_t> events_dropped_{0};
  std::atomic<uint64_t> slow_queries_{0};

  mutable std::mutex mu_;          // ring + slow report
  std::vector<TraceEvent> ring_;   // capacity fixed by Configure
  size_t ring_next_ = 0;           // total pushes mod nothing (monotonic)
  std::string last_slow_report_;
};

/// RAII root span for one query. On a thread with no active trace it
/// activates the per-query buffer (when the tracer is enabled and this
/// query is selected by sampling or the slow-query log is armed); nested
/// inside an already-active trace it degrades to a plain child span, so
/// facade and executor can both open one without double-rooting.
class QueryTrace {
 public:
  explicit QueryTrace(const char* name);
  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;
  ~QueryTrace();

  /// True when this frame owns an active buffer (spans will record).
  bool active() const { return owner_; }

 private:
  internal::TraceBuffer buffer_;
  bool owner_ = false;
  bool child_ = false;  // nested: recorded as a plain span
};

/// RAII child span; records into the calling thread's active query trace,
/// no-op when there is none.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, uint64_t arg = 0)
      : buf_(internal::ActiveBuffer()) {
    if (buf_ != nullptr) internal::OpenSpan(buf_, name, arg);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (buf_ != nullptr) internal::CloseSpan(buf_);
  }

 private:
  internal::TraceBuffer* buf_;
};

}  // namespace strr::obs

#endif  // STRR_OBS_TRACE_H_
