#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fsda::common {

namespace {

thread_local bool t_in_worker = false;

/// How long an idle worker polls the queued count before it parks.  Longer
/// than the gap between two regions of a training step (a few tens of
/// microseconds), far shorter than anything a parked wake-up would save.
constexpr auto kWorkerSpin = std::chrono::microseconds(200);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Polls `done` in bursts of `pause` until it holds or `deadline` passes,
/// yielding the core after each burst: on an idle core the yield returns at
/// once, and otherwise it hands the core to a runnable thread (a serving
/// worker woken by a request) instead of making it wait out the spin.
template <typename Done>
void spin_until(Done done, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (done()) return;
      cpu_relax();
    }
    std::this_thread::yield();
    if (std::chrono::steady_clock::now() >= deadline) return;
  }
}

/// One parallel region, owned by the caller's stack frame.  Every posted
/// chunk task decrements `pending` as its last access, and the caller does
/// not return before `pending` reaches zero, so the region outlives them.
struct Region {
  const std::function<void(std::size_t, std::size_t)>& body;
  std::size_t n;
  std::size_t chunk;
  std::atomic<std::size_t> pending;
  std::atomic<bool> failed;
  std::exception_ptr error;  // written once, by the thread that set failed

  void run_chunk(std::size_t c) noexcept {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    try {
      body(begin, end);
    } catch (...) {
      if (!failed.exchange(true, std::memory_order_relaxed)) {
        error = std::current_exception();
      }
    }
  }
};

}  // namespace

bool ThreadPool::in_worker() { return t_in_worker; }

ThreadPool::ThreadPool(std::size_t workers) {
  // Touch the telemetry singletons before any worker exists so they outlive
  // the workers (both are leaked, but this also orders their construction).
  obs::MetricsRegistry::global();
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::size_t ThreadPool::enqueued_locked(std::size_t added) {
  queued_.store(queue_.size(), std::memory_order_release);
  return std::min(parked_, added);
}

void ThreadPool::wake_parked(std::size_t count) {
  if (count == 0) return;
  if (count == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& tasks_total =
      registry.counter("pool.tasks_total", "tasks executed by pool workers");
  obs::HdrHistogram& queue_wait = registry.hdr(
      "pool.queue_wait_ms", obs::HdrOptions{},
      "time tasks spent queued before a worker picked them up (ms), "
      "log-linear quantile histogram");
  for (;;) {
    // Poll the queued count without the lock for a bounded window, so a
    // region opened shortly after the last one finds this worker awake.
    spin_until([this] { return queued_.load(std::memory_order_relaxed) != 0; },
               std::chrono::steady_clock::now() + kWorkerSpin);
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (queue_.empty() && !stopping_) {
        ++parked_;
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        --parked_;
      }
      if (queue_.empty()) return;  // stopping, and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      queued_.store(queue_.size(), std::memory_order_relaxed);
    }
    if (obs::telemetry_enabled() &&
        task.enqueued != std::chrono::steady_clock::time_point{}) {
      tasks_total.inc();
      queue_wait.record(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - task.enqueued)
                            .count());
    }
    task.fn();  // never throws: chunks and packaged_tasks capture errors
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()) - 1);
  return pool;
}

void ThreadPool::parallel_for_chunked(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t chunks = std::min(concurrency(), n);
  if (chunks == 1 || in_worker()) {
    // Nested region (or nothing to fork): the caller already occupies a
    // participant slot, so queueing sub-chunks would only oversubscribe.
    body(0, n);
    return;
  }
  // Chunk c covers [c*chunk, min(n, (c+1)*chunk)); with chunk rounded up the
  // tail chunks may be empty, so only the `used` non-empty ones run.
  const std::size_t chunk = (n + chunks - 1) / chunks;
  const std::size_t used = (n + chunk - 1) / chunk;
  Region region{body, n, chunk, {used - 1}, {false}, nullptr};
  std::size_t wake = 0;
  {
    const auto stamp = enqueue_stamp();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 1; c < used; ++c) {
      queue_.push_back({[r = &region, c] {
                          r->run_chunk(c);
                          r->pending.fetch_sub(1, std::memory_order_release);
                        },
                        stamp});
    }
    wake = enqueued_locked(used - 1);
  }
  wake_parked(wake);

  t_in_worker = true;
  region.run_chunk(0);
  t_in_worker = false;

  // Never parks: a futex sleep and wake per region would cost what the
  // spinning workers save.
  spin_until(
      [&region] {
        return region.pending.load(std::memory_order_acquire) == 0;
      },
      std::chrono::steady_clock::time_point::max());
  if (region.failed.load(std::memory_order_relaxed)) {
    std::rethrow_exception(region.error);
  }
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for_chunked(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

void parallel_for_chunked(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for_chunked(n, body);
}

}  // namespace fsda::common
