// Fixed-size worker pool shared by index construction (Con-Index expansion
// runs per time slot are independent) and the concurrent query executor
// (independent query plans fan out across workers).
#ifndef STRR_UTIL_THREAD_POOL_H_
#define STRR_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace strr {

/// Simple task-queue thread pool. Tasks are void() callables; exceptions
/// must not escape tasks (the library does not use exceptions — the
/// futures overload transports values, not throwables).
///
/// Thread-safety: Submit, Wait and the futures overload may be called
/// concurrently from any number of threads. Tasks may Submit more work,
/// but must NOT call Wait(): a waiting task counts as pending, so it
/// would deadlock waiting for itself. Code that may run on a worker
/// checks OnWorkerThread() and joins via futures or runs inline instead
/// (QueryExecutor::ExecuteBatch does exactly that).
class ThreadPool {
 public:
  /// `num_threads` of 0 means "one worker per hardware thread".
  explicit ThreadPool(size_t num_threads) {
    if (num_threads == 0) {
      num_threads = std::thread::hardware_concurrency();
      if (num_threads == 0) num_threads = 1;  // unknown topology
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker. When the submitting
  /// thread has an active query trace, the task carries it along: the
  /// worker runs under a task-local child buffer that merges back into
  /// the query's span tree (the submitter joins the task — via future or
  /// Wait — before its QueryTrace closes, which every in-tree fan-out
  /// already does).
  void Submit(std::function<void()> task) {
    obs::internal::TaskTraceHandle trace = obs::internal::CaptureTaskTrace();
    if (trace.parent != nullptr) {
      task = [trace, inner = std::move(task)] {
        obs::internal::ScopedTaskTrace scope(trace);
        inner();
      };
    }
    Enqueue(std::move(task));
  }

  /// Enqueues a value-returning task and returns the future for its result.
  /// (Void callables take the overload above; join them with Wait().)
  /// The task's spans merge into the query's trace before the future
  /// becomes ready, so a joined future never races the root's close.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>>,
            typename = std::enable_if_t<!std::is_void_v<R>>>
  std::future<R> Submit(F&& fn) {
    obs::internal::TaskTraceHandle trace = obs::internal::CaptureTaskTrace();
    auto task = std::make_shared<std::packaged_task<R()>>(
        [trace, fn = std::forward<F>(fn)]() mutable -> R {
          if (trace.parent == nullptr) return fn();
          // `scope` is destroyed after the return value is built and
          // before packaged_task stores it.
          obs::internal::ScopedTaskTrace scope(trace);
          return fn();
        });
    std::future<R> result = task->get_future();
    Enqueue([task] { (*task)(); });
    return result;
  }

  /// Blocks until the pool is idle: every task submitted so far — and any
  /// task submitted while waiting — has finished. Callers that need
  /// per-task joins under concurrent Submit traffic should hold futures
  /// instead.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

  size_t num_threads() const { return workers_.size(); }

  /// Point-in-time observability counters. `queue_depth` is tasks waiting
  /// for a worker (not yet started); `pending` additionally includes tasks
  /// currently running. Consumers: QueryExecutor::front_door_stats surfaces
  /// these so operators can see whether latency comes from queueing, and
  /// backpressure logic (admission, the live ingestor) can reason about
  /// pool saturation coherently with its own queue depths.
  struct Stats {
    uint64_t submitted = 0;  ///< tasks ever enqueued
    uint64_t completed = 0;  ///< tasks finished
    size_t queue_depth = 0;  ///< enqueued, not yet picked up
    size_t pending = 0;      ///< enqueued or running
    size_t threads = 0;
  };
  Stats stats() const {
    Stats out;
    out.submitted = submitted_.load(std::memory_order_relaxed);
    out.completed = completed_.load(std::memory_order_relaxed);
    out.threads = workers_.size();
    std::lock_guard<std::mutex> lock(mu_);
    out.queue_depth = tasks_.size();
    out.pending = pending_;
    return out;
  }

  /// True when the calling thread is one of THIS pool's workers. Lets
  /// nested fan-out decide to run inline instead of re-submitting to the
  /// pool and blocking a worker on work that may never be scheduled.
  bool OnWorkerThread() const { return current_pool_ == this; }

 private:
  void Enqueue(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push(std::move(task));
      ++pending_;
      // Under the lock so stats() never observes completed > submitted
      // or pending > submitted.
      submitted_.fetch_add(1, std::memory_order_relaxed);
    }
    QueuedTasksGauge().Add(1);
    cv_.notify_one();
  }

  void WorkerLoop() {
    current_pool_ = this;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
        if (shutdown_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      QueuedTasksGauge().Add(-1);
      task();
      completed_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  /// Tasks enqueued-but-not-started summed over every pool in the process
  /// (executor, prewarm, frontier workers share one gauge): the per-pool
  /// split lives in stats(); the gauge answers "is anything backed up".
  static obs::Gauge& QueuedTasksGauge() {
    static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
        "strr_pool_queued_tasks");
    return g;
  }

  static thread_local const ThreadPool* current_pool_;

  mutable std::mutex mu_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  size_t pending_ = 0;
  bool shutdown_ = false;
};

inline thread_local const ThreadPool* ThreadPool::current_pool_ = nullptr;

}  // namespace strr

#endif  // STRR_UTIL_THREAD_POOL_H_
