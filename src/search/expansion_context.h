// ExpansionContext: the reusable per-search scratch state every frontier
// expansion in the system runs on, plus the process-wide pool that recycles
// contexts across queries, Con-Index table builds and live rebuilds.
//
// Every hot path here — SQMB/MQMB bounding-region search, Con-Index
// construction, ES baseline cones, MQMB nearest-start maps — is a frontier
// expansion over the segment graph. Before src/search/ each call allocated
// its own O(num_segments) visited/label arrays and a fresh binary heap;
// under production query rates that is megabytes of allocation traffic per
// query. A context instead keeps:
//  * epoch-stamped per-segment state (label, origin, parent, mark): one
//    `Begin()` bumps the epoch instead of clearing arrays, so preparing a
//    search is O(1) amortized and steady-state searches allocate nothing;
//  * a reusable 4-ary min-heap (d-ary: shallower than binary, sift paths
//    touch fewer cache lines for the heavy-pop workloads here);
//  * reusable frontier/member buffers for the cone walk (see
//    FrontierEngine).
//
// Contexts are NOT thread-safe: one search owns a context at a time.
//
// ExpansionContextPool hands out contexts process-wide so all subsystems
// share one warm set sized to the network; the pool is thread-safe and
// bounded (excess contexts are discarded, not hoarded).
#ifndef STRR_SEARCH_EXPANSION_CONTEXT_H_
#define STRR_SEARCH_EXPANSION_CONTEXT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "roadnet/segment.h"
#include "util/aligned.h"

namespace strr {

/// Label value for unreached segments.
inline constexpr double kUnreachedLabel =
    std::numeric_limits<double>::infinity();

/// See file comment. All per-segment state is valid only between Begin()
/// calls; reads of never-touched segments return the documented defaults.
class ExpansionContext {
 public:
  /// Prepares the context for a search over `num_segments` segments.
  /// O(1) amortized: resizes only on first use or a larger network, and
  /// clears stamps only on epoch wraparound (every ~4 billion searches).
  void Begin(size_t num_segments);

  size_t size() const { return stamp_.size(); }

  // --- Stamped per-segment state --------------------------------------------

  bool Seen(SegmentId s) const { return stamp_[s] == epoch_; }

  double Label(SegmentId s) const {
    return Seen(s) ? label_[s] : kUnreachedLabel;
  }
  SegmentId Origin(SegmentId s) const {
    return Seen(s) ? origin_[s] : kInvalidSegment;
  }
  SegmentId Parent(SegmentId s) const {
    return Seen(s) ? parent_[s] : kInvalidSegment;
  }
  /// Generic per-segment marker (-1 when unset): the cone walk stores the
  /// profile slot a member last expanded under.
  int32_t Mark(SegmentId s) const { return Seen(s) ? mark_[s] : -1; }

  /// Stamps `s` (label=inf, origin/parent invalid, mark -1) if untouched.
  void Touch(SegmentId s) {
    if (!Seen(s)) {
      stamp_[s] = epoch_;
      label_[s] = kUnreachedLabel;
      origin_[s] = kInvalidSegment;
      parent_[s] = kInvalidSegment;
      mark_[s] = -1;
      reached_.push_back(s);
    }
  }

  void SetLabel(SegmentId s, double t) {
    Touch(s);
    label_[s] = t;
  }
  void SetOrigin(SegmentId s, SegmentId o) {
    Touch(s);
    origin_[s] = o;
  }
  void SetParent(SegmentId s, SegmentId p) {
    Touch(s);
    parent_[s] = p;
  }
  void SetMark(SegmentId s, int32_t m) {
    Touch(s);
    mark_[s] = m;
  }

  /// Segments touched since Begin(), in first-touch order.
  const std::vector<SegmentId>& reached() const { return reached_; }

  // --- 4-ary min-heap over (time, segment), lazy deletion -------------------

  void HeapPush(double time, SegmentId s);
  /// Pops the minimum entry; false when empty.
  bool HeapPop(double* time, SegmentId* s);
  bool HeapEmpty() const { return heap_.empty(); }
  /// Smallest key without popping; +inf when empty.
  double HeapMinTime() const {
    return heap_.empty() ? kUnreachedLabel : heap_.front().first;
  }

  // --- Reusable buffers for the engine --------------------------------------

  std::vector<SegmentId>& frontier() { return frontier_; }
  std::vector<SegmentId>& members() { return members_; }

 private:
  using HeapEntry = std::pair<double, SegmentId>;

  uint32_t epoch_ = 0;
  // Structure-of-arrays per-segment labels, each array starting on its own
  // cache line: a frontier pop touches one line per array it actually
  // reads, and the arrays never false-share with each other.
  AlignedVector<uint32_t> stamp_;
  AlignedVector<double> label_;
  AlignedVector<SegmentId> origin_;
  AlignedVector<SegmentId> parent_;
  AlignedVector<int32_t> mark_;
  std::vector<SegmentId> reached_;
  std::vector<HeapEntry> heap_;
  std::vector<SegmentId> frontier_;
  std::vector<SegmentId> members_;
};

/// Thread-safe bounded free list of contexts. All search consumers go
/// through Global() so a context warmed (sized) by one subsystem serves
/// the next — the steady state is zero allocation per search.
class ExpansionContextPool {
 public:
  explicit ExpansionContextPool(size_t max_pooled = 16)
      : max_pooled_(max_pooled) {}

  /// The process-wide pool.
  static ExpansionContextPool& Global();

  /// RAII lease: returns the context to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(ExpansionContextPool* pool, std::unique_ptr<ExpansionContext> ctx)
        : pool_(pool), ctx_(std::move(ctx)) {}
    Lease(Lease&&) = default;
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = std::exchange(other.pool_, nullptr);
        ctx_ = std::move(other.ctx_);
      }
      return *this;
    }
    ~Lease() { Release(); }

    ExpansionContext& operator*() { return *ctx_; }
    ExpansionContext* operator->() { return ctx_.get(); }
    ExpansionContext* get() { return ctx_.get(); }

   private:
    void Release();
    ExpansionContextPool* pool_ = nullptr;
    std::unique_ptr<ExpansionContext> ctx_;
  };

  /// Pops a pooled context (or allocates a fresh one). The caller still
  /// calls Begin() with its network size.
  Lease Acquire();

  /// Point-in-time counters. `reuses / acquires` is the pool hit rate
  /// surfaced in QueryExecutor::front_door_stats.
  struct Stats {
    uint64_t acquires = 0;
    uint64_t reuses = 0;    ///< served from the free list
    uint64_t created = 0;   ///< fresh allocations (cold pool / overflow)
    uint64_t discarded = 0; ///< returned while the pool was full
    size_t pooled = 0;      ///< contexts idle in the pool right now
  };
  Stats stats() const;

 private:
  friend class Lease;
  void Return(std::unique_ptr<ExpansionContext> ctx);

  const size_t max_pooled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ExpansionContext>> free_;
  uint64_t acquires_ = 0;
  uint64_t reuses_ = 0;
  uint64_t created_ = 0;
  uint64_t discarded_ = 0;
};

}  // namespace strr

#endif  // STRR_SEARCH_EXPANSION_CONTEXT_H_
