#include "common/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace isum {

namespace {

struct PoolMetrics {
  obs::Counter* batches;
  obs::Counter* tasks;
  obs::Gauge* workers;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return PoolMetrics{registry.GetCounter("threadpool.batches"),
                         registry.GetCounter("threadpool.tasks"),
                         registry.GetGauge("threadpool.workers")};
    }();
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  PoolMetrics::Get().workers->Set(static_cast<double>(n));
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      // Tag the worker so spans recorded inside its tasks land on a named
      // thread track in trace exports.
      obs::Tracer::Global().SetCurrentThreadName("pool-worker-" +
                                                 std::to_string(i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    size_t index = 0;
    const std::function<void(size_t)>* fn = nullptr;
    const CancellationToken* cancel = nullptr;
    {
      // Predicate loop stays inline (not a wait-with-lambda) so the guarded
      // reads sit in this annotated scope, where the analysis can prove
      // mutex_ is held.
      MutexLock lock(mutex_);
      while (!shutdown_ &&
             (batch_fn_ == nullptr || next_index_ >= batch_size_)) {
        work_available_.Wait(mutex_);
      }
      if (shutdown_) return;
      index = next_index_++;
      fn = batch_fn_;
      cancel = batch_cancel_;
    }
    // Early exit: a cancelled batch skips indexes that have not started,
    // so the caller's ParallelFor unblocks promptly.
    if (cancel == nullptr || !cancel->cancelled()) (*fn)(index);
    {
      MutexLock lock(mutex_);
      if (++completed_ == batch_size_) work_done_.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const CancellationToken& cancel) {
  if (n == 0) return;
  ISUM_TRACE_SPAN("threadpool/parallel_for");
  PoolMetrics::Get().batches->Add(1);
  PoolMetrics::Get().tasks->Add(n);
  {
    MutexLock lock(mutex_);
    batch_fn_ = &fn;
    batch_cancel_ = cancel.cancellable() ? &cancel : nullptr;
    batch_size_ = n;
    next_index_ = 0;
    completed_ = 0;
  }
  work_available_.NotifyAll();
  {
    MutexLock lock(mutex_);
    while (completed_ != batch_size_) work_done_.Wait(mutex_);
    batch_fn_ = nullptr;
    batch_cancel_ = nullptr;
  }
}

}  // namespace isum
