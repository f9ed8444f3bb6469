#include "serve/daemon.hpp"

#include <cstring>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fsda::serve {

namespace {

/// Queue-wait window epoch; with kWaitWindowEpochs epochs the policy sees a
/// ~2 s sliding window, long enough to smooth scheduling jitter and short
/// enough to track a load swing within a couple of seconds.
constexpr std::uint64_t kWaitEpochNs = 250ull * 1000 * 1000;
constexpr std::size_t kWaitWindowEpochs = 8;
/// Queue-wait quantile the batch policy consumes.
constexpr double kWaitQuantile = 0.9;
/// Refresh the cached wait quantile every this many dequeues (merging the
/// window on every batch would put an O(buckets) scan on the hot path).
constexpr std::size_t kWaitRefreshEvery = 32;

constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;

obs::Counter& shed_counter(const char* reason) {
  return obs::MetricsRegistry::global().counter(
      obs::metric_with_label("serve.shed_total", "reason", reason),
      "requests fast-rejected by admission control");
}

}  // namespace

ServeDaemon::ServeDaemon(core::FsGanPipeline& pipeline, ServeOptions options)
    : pipeline_(pipeline),
      options_(options),
      queue_(options.queue_shards),
      slo_(options.slo),
      wait_hdr_(kWaitWindowEpochs) {
  FSDA_CHECK_MSG(pipeline_.is_trained(), "ServeDaemon over untrained pipeline");
  if (options_.workers == 0) options_.workers = 1;
  wait_epoch_ns_.store(obs::FlightRecorder::global().now_ns(),
                       std::memory_order_relaxed);
}

ServeDaemon::~ServeDaemon() { stop(); }

void ServeDaemon::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  accepting_.store(true, std::memory_order_release);
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&ServeDaemon::worker_main, this, i);
  }
}

void ServeDaemon::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  accepting_.store(false, std::memory_order_release);
  queue_.close();  // workers drain what is queued, then exit
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
}

Admission ServeDaemon::submit(la::Matrix x, std::uint64_t request_id,
                              std::function<void(ServeResult&&)> done) {
  static obs::Counter& requests_total = obs::MetricsRegistry::global().counter(
      "serve.requests_total", "requests offered to the serving daemon");
  requests_total.inc();
  if (!accepting_.load(std::memory_order_acquire)) {
    shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = shed_counter("shutdown");
    c.inc();
    return Admission::ShuttingDown;
  }

  // Malformed requests are answered immediately (synchronously, on the
  // caller's thread) instead of poisoning a worker's batch: every request
  // inside one micro-batch must share the pipeline's feature width.
  if (x.rows() == 0 || x.cols() != pipeline_.scaled_source().cols()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    ServeResult r;
    r.request_id = request_id;
    r.error = WireError::BadFrame;
    if (done) done(std::move(r));
    return Admission::Accepted;
  }

  const std::size_t depth = queue_.depth();
  if (depth >= options_.max_queue_depth) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = shed_counter("queue_full");
    c.inc();
    FSDA_EVENT_INSTANT(obs::EventCategory::Serving, "serve.shed",
                       static_cast<double>(depth));
    return Admission::ShedQueueFull;
  }
  if (options_.shed_burn_rate > 0.0 && depth >= options_.slo_shed_min_depth &&
      slo_.error_budget_burn_rate() > options_.shed_burn_rate) {
    shed_slo_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = shed_counter("slo_burn");
    c.inc();
    FSDA_EVENT_INSTANT(obs::EventCategory::Serving, "serve.shed",
                       static_cast<double>(depth));
    return Admission::ShedSlo;
  }

  auto req = std::make_unique<Request>();
  req->x = std::move(x);
  req->id = request_id;
  req->enqueue_ns = obs::FlightRecorder::global().now_ns();
  req->done = std::move(done);
  if (!queue_.push(std::move(req))) {
    // Lost the race with stop(): the queue closed between the accepting_
    // check and the push.
    shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& c = shed_counter("shutdown");
    c.inc();
    return Admission::ShuttingDown;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  FSDA_EVENT_INSTANT(obs::EventCategory::Serving, "serve.enqueue",
                     static_cast<double>(depth + 1));
  return Admission::Accepted;
}

void ServeDaemon::refresh_wait_quantile() {
  const obs::HdrHistogram merged = wait_hdr_.merged();
  recent_wait_ms_.store(
      merged.count() > 0 ? merged.value_at_quantile(kWaitQuantile) : 0.0,
      std::memory_order_relaxed);
}

void ServeDaemon::worker_main(std::size_t worker_index) {
  auto slot = pipeline_.create_serve_slot(options_.seed +
                                          worker_index * kSeedStride);
  pipeline_.reserve_serve_slot(*slot, options_.batch.max_batch_rows);

  la::Matrix batch_x;
  la::Matrix batch_proba;
  std::vector<std::unique_ptr<Request>> batch;
  batch.reserve(options_.batch.max_batch_rows);

  for (;;) {
    batch.clear();
    if (queue_.pop(batch, 1) == 0) break;  // closed and drained

    // Queue wait of the head request drives the batch policy.
    const std::uint64_t now = obs::FlightRecorder::global().now_ns();
    const double head_wait_ms =
        static_cast<double>(now - batch.front()->enqueue_ns) / 1e6;
    wait_hdr_.record_always(head_wait_ms);
    FSDA_EVENT_INSTANT(obs::EventCategory::Serving, "serve.dequeue",
                       head_wait_ms);

    // Lazy, contention-free window maintenance: whichever worker notices
    // the epoch elapsed rotates and refreshes the cached quantile.
    std::uint64_t epoch = wait_epoch_ns_.load(std::memory_order_relaxed);
    if (now - epoch >= kWaitEpochNs &&
        wait_epoch_ns_.compare_exchange_strong(epoch, now,
                                               std::memory_order_relaxed)) {
      wait_hdr_.rotate();
      refresh_wait_quantile();
    } else if (dequeues_.fetch_add(1, std::memory_order_relaxed) %
                   kWaitRefreshEvery == 0) {
      refresh_wait_quantile();
    }

    // Greedy coalescing: take whole queued requests while the batch is
    // below target.  Never waits -- rows that have not arrived cannot
    // reduce anyone's latency.  A multi-row request may overshoot the
    // target; the cap is advisory, correctness never depends on it.
    std::size_t rows = batch.front()->x.rows();
    const std::size_t target = target_batch_rows(
        queue_.depth() + rows, recent_wait_ms(), options_.batch);
    while (rows < target) {
      if (queue_.try_pop(batch, 1) == 0) break;
      const std::uint64_t w_ns =
          obs::FlightRecorder::global().now_ns() - batch.back()->enqueue_ns;
      wait_hdr_.record_always(static_cast<double>(w_ns) / 1e6);
      rows += batch.back()->x.rows();
    }

    run_batch(batch, *slot, batch_x, batch_proba);
  }
}

void ServeDaemon::run_batch(std::vector<std::unique_ptr<Request>>& batch,
                            core::FsGanPipeline::ServeSlot& slot,
                            la::Matrix& batch_x, la::Matrix& batch_proba) {
  FSDA_EVENT_SCOPE(obs::EventCategory::Serving, "serve.batch");
  const std::size_t cols = batch.front()->x.cols();
  std::size_t rows = 0;
  for (const auto& r : batch) rows += r->x.rows();
  FSDA_EVENT_COUNTER(obs::EventCategory::Serving, "serve.batch_rows",
                     static_cast<double>(rows));

  // Single-request batches skip the gather copy entirely.
  const la::Matrix* x = &batch.front()->x;
  if (batch.size() > 1) {
    batch_x.resize(rows, cols);
    std::size_t at = 0;
    for (const auto& r : batch) {
      std::memcpy(batch_x.row(at).data(), r->x.data().data(),
                  r->x.size() * sizeof(double));
      at += r->x.rows();
    }
    x = &batch_x;
  }

  try {
    const core::BatchFacts facts =
        pipeline_.predict_proba_serve(*x, batch_proba, slot);
    slo_.record(facts.elapsed_ms);
  } catch (const std::exception& e) {
    FSDA_LOG_WARN << "serve batch failed: " << e.what();
    for (auto& r : batch) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      if (!r->done) continue;
      ServeResult res;
      res.request_id = r->id;
      res.error = WireError::Internal;
      r->done(std::move(res));
    }
    return;
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_rows_.fetch_add(rows, std::memory_order_relaxed);

  // Slice the stacked probabilities back out per request.
  std::size_t at = 0;
  for (auto& r : batch) {
    const std::size_t n = r->x.rows();
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (r->done) {
      ServeResult res;
      res.request_id = r->id;
      res.proba.resize(n, batch_proba.cols());
      std::memcpy(res.proba.data().data(), batch_proba.row(at).data(),
                  n * batch_proba.cols() * sizeof(double));
      r->done(std::move(res));
    }
    at += n;
  }
}

ServeDaemon::Stats ServeDaemon::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_slo = shed_slo_.load(std::memory_order_relaxed);
  s.shed_shutdown = shed_shutdown_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_rows = batched_rows_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fsda::serve
