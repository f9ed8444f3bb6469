// fsda::serve -- the concurrent serving daemon (DESIGN.md §15).
//
// ServeDaemon turns a trained FsGanPipeline into a long-running service:
//
//   submit() --admission--> ShardedQueue --workers--> micro-batches
//                                                         |
//                    completion callback  <--  predict_proba_serve
//
// Admission control runs at submit time, before anything is queued: a
// request is fast-rejected (typed ShedReason, no allocation beyond the
// caller's) when queue depth exceeds the configured cap, or when the
// daemon's own serving SLO's error-budget burn rate crosses its threshold
// while real load is present.  The SLO tracker belongs to the daemon
// instance: workers record each batch's scoring latency into it and
// admission reads it, so one daemon's overload never sheds another's
// traffic.  Shedding at the door keeps the queue-wait distribution honest
// -- admitted requests are requests the daemon intends to serve within
// SLO.
//
// Each worker owns one FsGanPipeline::ServeSlot (pinned generation
// snapshot + session context + private buffers): it blocks on the queue,
// measures the first request's queue wait into a WindowedHdr, asks the
// pure batch policy for a target size, greedily coalesces whole queued
// requests up to that target (never waiting for rows that have not
// arrived), concatenates them into its reusable batch matrix, and runs ONE
// predict_proba_serve call -- which takes one generation snapshot from the
// model registry, so a drift-loop hot-swap lands transparently on batch
// boundaries -- and records the batch's scoring latency into the SLO.
// Responses are sliced back per request and delivered through the
// completion callbacks on the worker thread.
//
// The daemon is front-end agnostic: submit() is the whole ingress API.
// The Unix-socket listener (serve/uds.hpp) is one front-end; tests and the
// load generator call submit() directly for determinism.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "la/matrix.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/slo.hpp"
#include "serve/batch_policy.hpp"
#include "serve/sharded_queue.hpp"
#include "serve/wire.hpp"

namespace fsda::serve {

struct ServeOptions {
  /// Inference worker threads (each with its own ServeSlot).
  std::size_t workers = 2;
  /// Request-queue shards.
  std::size_t queue_shards = 4;
  /// Micro-batch sizing policy.
  BatchPolicyOptions batch;
  /// Admission: shed (ShedQueueFull) when queue depth reaches this.
  std::size_t max_queue_depth = 512;
  /// The daemon's serving SLO: workers record every batch's scoring
  /// latency into it.
  obs::SloOptions slo = [] {
    obs::SloOptions o;
    o.gauge_prefix = "slo.predict";
    return o;
  }();
  /// Admission: shed (ShedSlo) when the serving SLO's error-budget burn
  /// rate exceeds this.  <= 0 disables SLO shedding.
  double shed_burn_rate = 2.0;
  /// SLO shedding only applies at/above this queue depth -- a burn-rate
  /// window poisoned by a past overload must not shed an idle daemon.
  std::size_t slo_shed_min_depth = 4;
  /// Base seed for the workers' reconstruction-noise streams.
  std::uint64_t seed = 0x5eedULL;
};

/// Admission verdict for one submit().
enum class Admission : std::uint8_t {
  Accepted = 0,
  ShedQueueFull = 1,
  ShedSlo = 2,
  ShuttingDown = 3,
};

[[nodiscard]] constexpr WireError to_wire_error(Admission a) noexcept {
  switch (a) {
    case Admission::ShedQueueFull: return WireError::ShedQueueFull;
    case Admission::ShedSlo: return WireError::ShedSlo;
    case Admission::ShuttingDown: return WireError::ShuttingDown;
    case Admission::Accepted: break;
  }
  return WireError::None;
}

/// Delivered to the completion callback, on a worker thread.
struct ServeResult {
  std::uint64_t request_id = 0;
  WireError error = WireError::None;  ///< None = proba is valid
  la::Matrix proba;                   ///< rows match the request
};

class ServeDaemon {
 public:
  /// The pipeline must stay alive and trained for the daemon's lifetime;
  /// background drift-loop publishes against it are fine (that is the
  /// point), concurrent train()/adapt() calls are not.
  ServeDaemon(core::FsGanPipeline& pipeline, ServeOptions options);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Spawns the worker pool.  Idempotent.
  void start();

  /// Closes the queue, drains it, joins the workers.  Queued requests are
  /// still served; requests submitted after stop() begins are shed with
  /// ShuttingDown.  Idempotent.
  void stop();

  /// Ingress: hands one request (raw feature rows, any batch size) to the
  /// daemon.  On Accepted, `done` fires exactly once on a worker thread --
  /// with probabilities, or with a typed error if prediction failed.  On
  /// any Shed*/ShuttingDown verdict `done` does NOT fire; the caller
  /// already has everything a typed error frame needs.
  [[nodiscard]] Admission submit(la::Matrix x, std::uint64_t request_id,
                                 std::function<void(ServeResult&&)> done);

  /// Monotonic counters; coherent enough for tests and scrapes.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_slo = 0;
    std::uint64_t shed_shutdown = 0;
    std::uint64_t completed = 0;      ///< requests answered with Proba
    std::uint64_t failed = 0;         ///< requests answered with Error
    std::uint64_t batches = 0;        ///< predict calls issued
    std::uint64_t batched_rows = 0;   ///< rows across all predict calls
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  /// The cached recent queue-wait quantile (ms) the policy is seeing.
  [[nodiscard]] double recent_wait_ms() const {
    return recent_wait_ms_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const ServeOptions& options() const { return options_; }
  /// The daemon's serving SLO tracker (what SLO shedding reads).
  [[nodiscard]] obs::SloTracker& slo() { return slo_; }
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

 private:
  struct Request {
    la::Matrix x;
    std::uint64_t id = 0;
    std::uint64_t enqueue_ns = 0;
    std::function<void(ServeResult&&)> done;
  };

  void worker_main(std::size_t worker_index);
  void run_batch(std::vector<std::unique_ptr<Request>>& batch,
                 core::FsGanPipeline::ServeSlot& slot, la::Matrix& batch_x,
                 la::Matrix& batch_proba);
  void refresh_wait_quantile();

  core::FsGanPipeline& pipeline_;
  ServeOptions options_;
  ShardedQueue<std::unique_ptr<Request>> queue_;
  obs::SloTracker slo_;
  obs::WindowedHdr wait_hdr_;
  std::atomic<double> recent_wait_ms_{0.0};
  std::atomic<std::uint64_t> dequeues_{0};
  std::atomic<std::uint64_t> wait_epoch_ns_{0};

  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_slo_{0};
  std::atomic<std::uint64_t> shed_shutdown_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_rows_{0};
};

}  // namespace fsda::serve
