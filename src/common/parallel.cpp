#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/metrics.h"

namespace lcosc {
namespace {

// Pool telemetry (DESIGN.md §10).  Gauges, not counters: instantaneous
// pool state depends on the worker count and scheduling, so it is
// deliberately outside the cross-worker determinism contract that the
// campaign counters/histograms satisfy.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::instance().gauge("pool.queue_depth");
  return g;
}

obs::Gauge& busy_workers_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::instance().gauge("pool.busy_workers");
  return g;
}

thread_local bool t_on_pool_worker = false;

std::size_t env_worker_override() {
  const char* env = std::getenv("LCOSC_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || v < 1) return 0;
  return static_cast<std::size_t>(v);
}

// Shared state of one parallel_for call.  Kept alive by shared_ptr so a
// helper task that starts after the caller has already finished the
// batch (it will find no index left) never touches a dead frame.
struct Batch {
  Batch(std::size_t count, const std::function<void(std::size_t)>& body)
      : n(count), fn(body), errors(count) {}

  const std::size_t n;
  const std::function<void(std::size_t)> fn;
  std::vector<std::exception_ptr> errors;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::mutex mutex;
  std::condition_variable done_cv;

  // Claim indices until the batch is exhausted.  Runs on the caller's
  // thread and on any pool helpers; dynamic claiming balances uneven
  // per-index cost without affecting where results land.
  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        const std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

std::size_t resolve_worker_count(std::size_t env_override, unsigned hardware) {
  const std::size_t hw = hardware > 0 ? static_cast<std::size_t>(hardware) : std::size_t{1};
  if (env_override > 0) return std::min(env_override, hw * kMaxWorkerOversubscription);
  return hw;
}

std::size_t default_worker_count() {
  static const std::size_t count =
      resolve_worker_count(env_worker_override(), std::thread::hardware_concurrency());
  return count;
}

ThreadPool::ThreadPool(std::size_t workers) {
  obs::MetricsRegistry::instance().gauge("pool.workers").set(static_cast<double>(workers));
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    busy_workers_gauge().add(1.0);
    try {
      task();
    } catch (...) {
      // Contract: submitted tasks must not throw (parallel_for catches
      // per-index exceptions before they reach the pool).
    }
    busy_workers_gauge().add(-1.0);
  }
}

bool ThreadPool::on_worker_thread() { return t_on_pool_worker; }

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max<std::size_t>(std::size_t{1}, default_worker_count() - 1));
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t workers) {
  if (n == 0) return;
  std::size_t k = workers > 0 ? workers : default_worker_count();
  k = std::min(k, n);

  if (k <= 1 || ThreadPool::on_worker_thread()) {
    // Inline path: single-worker mode, and nested calls from inside a
    // pool worker (blocking on the shared pool there could starve it).
    // Mirrors the parallel exception contract: every index is attempted,
    // the lowest failing index's exception is rethrown.
    std::exception_ptr first;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }

  auto batch = std::make_shared<Batch>(n, fn);
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t helpers = std::min(k - 1, pool.worker_count());
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([batch] { batch->run(); });
  }
  batch->run();
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done_cv.wait(lock, [&] {
      return batch->completed.load(std::memory_order_acquire) == batch->n;
    });
  }
  // Take the lowest failing index's exception out of the batch and drop
  // every other one here, on the caller's thread: a pool helper may
  // still hold the last reference to the batch, and an exception left in
  // `errors` would then be freed on that helper while the caller reads
  // its rethrown copy.
  const auto failed = std::find_if(batch->errors.begin(), batch->errors.end(),
                                   [](const std::exception_ptr& e) { return e != nullptr; });
  if (failed != batch->errors.end()) {
    const std::exception_ptr first = std::move(*failed);
    batch->errors.clear();
    std::rethrow_exception(first);
  }
}

}  // namespace lcosc
