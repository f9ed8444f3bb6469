// fsda::common -- fork-join thread pool behind parallel_for (DESIGN.md §7).
//
// The parallel regions this pool runs are small: a training step opens a few
// dozen GEMM regions of tens of microseconds each, so the fork and the join
// must cost far less than waking a parked thread.  Three choices get there:
//   - the calling thread is a participant: it runs chunk 0 itself while the
//     other chunks go to the workers, so global() holds nproc - 1 workers
//     and a region never oversubscribes the cores (zero workers on a 1-vCPU
//     host, where every region runs inline);
//   - a worker that runs out of tasks spins for a bounded window on an
//     atomic queued count before it parks on the condition variable, so the
//     next region of a busy loop finds it awake;
//   - the caller waits on one atomic completion counter and never parks.
// Both spins run in bursts of `pause` that end in a yield, so a thread that
// needs the core (a serving worker woken by a request) gets it at once.
// A chunk is a plain posted task (no packaged_task, no future); the first
// exception a chunk throws is captured and rethrown on the calling thread
// after every chunk has finished.  submit() keeps the future-returning
// interface for one-off tasks.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace fsda::common {

/// A fixed pool of worker threads executing queued tasks FIFO.
class ThreadPool {
 public:
  /// Spawns exactly `workers` threads.  Zero is valid: submitted tasks and
  /// parallel regions then run on the calling thread.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future observes its result or exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return fut;
    }
    std::size_t wake = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back({[task] { (*task)(); }, enqueue_stamp()});
      wake = enqueued_locked(1);
    }
    wake_parked(wake);
    return fut;
  }

  /// Runs body(begin, end) over [0, n) split into min(concurrency(), n)
  /// contiguous chunks and blocks until all finish.  The caller runs chunk
  /// 0 with in_worker() true; the rest go to the workers.  Rethrows the
  /// first exception any chunk raised.  Called from a pool worker (or from
  /// inside a chunk), or on a pool without workers, the whole range runs
  /// inline as one chunk.
  void parallel_for_chunked(
      std::size_t n,
      const std::function<void(std::size_t begin, std::size_t end)>& body);

  /// Threads that run a parallel region's chunks: the workers plus the
  /// calling thread.
  std::size_t concurrency() const { return workers_.size() + 1; }

  /// True on a pool worker, and on any thread while it runs chunk 0 of a
  /// region.  parallel_for uses it to run nested regions inline instead of
  /// re-submitting to the pool, which could deadlock (a worker waiting on
  /// chunks that only other, equally waiting, workers can run) and would
  /// oversubscribe the cores.
  static bool in_worker();

  /// Process-wide shared pool with hardware_concurrency() - 1 workers
  /// (lazily constructed).
  static ThreadPool& global();

 private:
  struct Task {
    std::function<void()> fn;
    /// Enqueue time for queue-wait telemetry; default-constructed (and
    /// ignored at dequeue) when telemetry was disabled at enqueue.
    std::chrono::steady_clock::time_point enqueued;
  };

  static std::chrono::steady_clock::time_point enqueue_stamp() {
    return obs::telemetry_enabled() ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
  }

  /// Publishes `added` newly queued tasks to spinning workers and returns
  /// how many parked workers to wake.  Caller holds mutex_.
  std::size_t enqueued_locked(std::size_t added);
  void wake_parked(std::size_t count);
  void worker_loop();

  std::mutex mutex_;
  std::deque<Task> queue_;           // guarded by mutex_
  std::size_t parked_ = 0;           // workers in cv_.wait; guarded by mutex_
  bool stopping_ = false;            // guarded by mutex_
  std::condition_variable cv_;
  /// queue_.size(), stored under mutex_ and polled lock-free by spinning
  /// workers.
  std::atomic<std::size_t> queued_{0};
  std::vector<std::thread> workers_;
};

/// Runs body(i) for i in [0, n) across the global pool, blocking until all
/// iterations finish.  Rethrows the first exception observed.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// ThreadPool::global().parallel_for_chunked(n, body).
void parallel_for_chunked(
    std::size_t n,
    const std::function<void(std::size_t begin, std::size_t end)>& body);

}  // namespace fsda::common
