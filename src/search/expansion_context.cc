#include "search/expansion_context.h"

#include <algorithm>

#include "obs/metrics.h"

namespace strr {

namespace {

obs::Counter& CtxAcquiresCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_ctx_pool_acquires_total");
  return c;
}
obs::Counter& CtxReusesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "strr_ctx_pool_reuses_total");
  return c;
}

}  // namespace

void ExpansionContext::Begin(size_t num_segments) {
  if (num_segments != stamp_.size()) {
    stamp_.assign(num_segments, 0);
    label_.resize(num_segments);
    origin_.resize(num_segments);
    parent_.resize(num_segments);
    mark_.resize(num_segments);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // Wraparound: stamp 0 would read as "seen" for untouched segments.
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  reached_.clear();
  heap_.clear();
  frontier_.clear();
  members_.clear();
}

void ExpansionContext::HeapPush(double time, SegmentId s) {
  heap_.emplace_back(time, s);
  size_t i = heap_.size() - 1;
  while (i > 0) {
    size_t up = (i - 1) / 4;
    if (heap_[up].first <= heap_[i].first) break;
    std::swap(heap_[up], heap_[i]);
    i = up;
  }
}

bool ExpansionContext::HeapPop(double* time, SegmentId* s) {
  if (heap_.empty()) return false;
  *time = heap_.front().first;
  *s = heap_.front().second;
  heap_.front() = heap_.back();
  heap_.pop_back();
  size_t i = 0;
  const size_t n = heap_.size();
  for (;;) {
    size_t first = i * 4 + 1;
    if (first >= n) break;
    size_t best = first;
    size_t last = std::min(first + 4, n);
    for (size_t c = first + 1; c < last; ++c) {
      if (heap_[c].first < heap_[best].first) best = c;
    }
    if (heap_[i].first <= heap_[best].first) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return true;
}

ExpansionContextPool& ExpansionContextPool::Global() {
  static ExpansionContextPool* pool = new ExpansionContextPool();
  return *pool;
}

ExpansionContextPool::Lease ExpansionContextPool::Acquire() {
  std::unique_ptr<ExpansionContext> ctx;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++acquires_;
    if (!free_.empty()) {
      ctx = std::move(free_.back());
      free_.pop_back();
      ++reuses_;
      CtxReusesCounter().Add();
    } else {
      ++created_;
    }
  }
  CtxAcquiresCounter().Add();
  if (ctx == nullptr) ctx = std::make_unique<ExpansionContext>();
  return Lease(this, std::move(ctx));
}

void ExpansionContextPool::Return(std::unique_ptr<ExpansionContext> ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.size() >= max_pooled_) {
    ++discarded_;
    return;  // ctx destroyed outside the pool
  }
  free_.push_back(std::move(ctx));
}

void ExpansionContextPool::Lease::Release() {
  if (pool_ != nullptr && ctx_ != nullptr) {
    pool_->Return(std::move(ctx_));
  }
  pool_ = nullptr;
  ctx_.reset();
}

ExpansionContextPool::Stats ExpansionContextPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.acquires = acquires_;
  out.reuses = reuses_;
  out.created = created_;
  out.discarded = discarded_;
  out.pooled = free_.size();
  return out;
}

}  // namespace strr
