// Serving-daemon load generator: closed- and open-loop arrival patterns
// against ServeDaemon (src/serve/daemon.hpp) on the 442-feature Gen5GC
// layout.
//
// Three phases, matching the acceptance criteria of the serving subsystem:
//
//   1. closed-loop saturation -- N client threads, each submitting one
//      single-row request and waiting for its answer, against (a) a
//      batch=1 daemon (micro-batching disabled) and (b) the adaptive
//      daemon.  Reports rows/sec and client-observed HDR latency
//      quantiles; the adaptive daemon must reach >= 1.5x the batch=1
//      throughput at saturation.
//   2. open-loop overload -- a dispatcher offers requests at ~2x the
//      measured adaptive capacity against a small admission queue.
//      Reports offered/accepted/shed rates and the end-to-end latency of
//      ADMITTED requests, whose p99 must stay within the configured SLO
//      (that is the point of shedding at the door).
//   3. mid-run hot-swap -- phase 1(b) runs with a thread rolling the
//      registry back and forth between two published generations every
//      ~150 ms; every response is validated (finite, correct shape,
//      probabilities summing to 1), and the run must finish with zero
//      failed or invalid responses.
//
// Writes one JSON line to BENCH_serving.json and a flight-recorder journal
// + Perfetto trace (BENCH_serving_journal.jsonl / BENCH_serving_trace.json)
// under the bench output directory.  FSDA_SMOKE=1 shrinks shapes and
// durations for CI.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/ours.hpp"
#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/stopwatch.hpp"
#include "data/dataset.hpp"
#include "data/gen5gc.hpp"
#include "la/gemm.hpp"
#include "models/factory.hpp"
#include "obs/journal.hpp"
#include "obs/perfetto_export.hpp"
#include "serve/daemon.hpp"
#include "serving_bench.hpp"

using namespace fsda;

namespace {

constexpr double kSloTargetMs = 50.0;

/// One closed-loop client's view of a finished run.
struct ClientTally {
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;   ///< typed error responses
  std::uint64_t invalid = 0;  ///< malformed successful responses
};

/// Validates one successful response: shape, finiteness, rows on the
/// simplex.  Any violation marks the response invalid -- the hot-swap
/// acceptance criterion.
bool response_valid(const serve::ServeResult& res, std::size_t rows,
                    std::size_t classes) {
  if (res.proba.rows() != rows || res.proba.cols() != classes) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      const double p = res.proba(r, c);
      if (!std::isfinite(p) || p < -1e-9) return false;
      sum += p;
    }
    if (std::abs(sum - 1.0) > 1e-6) return false;
  }
  return true;
}

struct ClosedLoopResult {
  double seconds = 0.0;
  double rows_per_sec = 0.0;
  double rows_per_batch = 0.0;
  bench::LatencyStats latency;
  ClientTally tally;
};

/// `clients` threads in closed loop for `seconds` wall time: submit one
/// 1-row request, wait for the callback, repeat.
ClosedLoopResult run_closed_loop(serve::ServeDaemon& daemon,
                                 const la::Matrix& test, std::size_t classes,
                                 std::size_t clients, double seconds) {
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    serve::ServeResult res;
  };

  const serve::ServeDaemon::Stats before = daemon.stats();
  obs::HdrHistogram merged_latency(bench::latency_hdr_options());
  std::vector<ClientTally> tallies(clients);
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  common::Stopwatch wall;

  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      obs::HdrHistogram latency(bench::latency_hdr_options());
      ClientTally& tally = tallies[t];
      Waiter waiter;
      la::Matrix x(1, test.cols());
      std::uint64_t seq = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t src = (t * 7919 + seq) % test.rows();
        for (std::size_t c = 0; c < test.cols(); ++c) x(0, c) = test(src, c);
        waiter.done = false;
        common::Stopwatch timer;
        const serve::Admission verdict = daemon.submit(
            x, (t << 32) | seq, [&waiter](serve::ServeResult&& r) {
              std::lock_guard<std::mutex> lk(waiter.mu);
              waiter.res = std::move(r);
              waiter.done = true;
              waiter.cv.notify_one();
            });
        ++seq;
        if (verdict != serve::Admission::Accepted) {
          ++tally.shed;
          continue;
        }
        {
          std::unique_lock<std::mutex> lk(waiter.mu);
          waiter.cv.wait(lk, [&] { return waiter.done; });
        }
        latency.record_always(timer.millis());
        if (waiter.res.error != serve::WireError::None) {
          ++tally.failed;
        } else if (!response_valid(waiter.res, 1, classes)) {
          ++tally.invalid;
        } else {
          ++tally.ok;
        }
      }
      static std::mutex merge_mu;
      std::lock_guard<std::mutex> lk(merge_mu);
      merged_latency.merge_from(latency);
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  ClosedLoopResult out;
  out.seconds = wall.seconds();
  for (const ClientTally& t : tallies) {
    out.tally.ok += t.ok;
    out.tally.shed += t.shed;
    out.tally.failed += t.failed;
    out.tally.invalid += t.invalid;
  }
  const serve::ServeDaemon::Stats after = daemon.stats();
  const std::uint64_t batches = after.batches - before.batches;
  const std::uint64_t rows = after.batched_rows - before.batched_rows;
  out.rows_per_batch =
      batches > 0 ? static_cast<double>(rows) / static_cast<double>(batches)
                  : 0.0;
  out.rows_per_sec =
      out.seconds > 0 ? static_cast<double>(out.tally.ok) / out.seconds : 0.0;
  out.latency = bench::quantiles(merged_latency);
  return out;
}

struct OverloadResult {
  double seconds = 0.0;
  double offered_per_sec = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  double shed_rate = 0.0;
  bench::LatencyStats admitted;  ///< end-to-end, admitted requests only
};

/// Open-loop dispatcher: offers single-row requests at `rate_per_sec`
/// regardless of completions (batched into 1 ms ticks), for `seconds`.
OverloadResult run_open_loop(serve::ServeDaemon& daemon, const la::Matrix& test,
                             double rate_per_sec, double seconds) {
  OverloadResult out;
  auto latency = std::make_shared<obs::HdrHistogram>(
      bench::latency_hdr_options());
  std::atomic<std::uint64_t> completions{0};
  common::Stopwatch wall;
  double owed = 0.0;
  std::uint64_t seq = 0;
  la::Matrix x(1, test.cols());
  while (wall.seconds() < seconds) {
    owed += rate_per_sec * 0.001;
    while (owed >= 1.0) {
      owed -= 1.0;
      const std::size_t src = seq % test.rows();
      for (std::size_t c = 0; c < test.cols(); ++c) x(0, c) = test(src, c);
      ++out.offered;
      const double t0_ms = wall.millis();
      const serve::Admission verdict = daemon.submit(
          x, seq, [latency, &completions, &wall, t0_ms](
                      serve::ServeResult&& res) {
            if (res.error == serve::WireError::None) {
              latency->record_always(wall.millis() - t0_ms);
            }
            completions.fetch_add(1, std::memory_order_relaxed);
          });
      ++seq;
      if (verdict == serve::Admission::Accepted) ++out.accepted;
      else ++out.shed;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let in-flight work drain before reading the histogram.
  while (completions.load(std::memory_order_relaxed) < out.accepted &&
         wall.seconds() < seconds + 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  out.seconds = wall.seconds();
  out.offered_per_sec =
      out.seconds > 0 ? static_cast<double>(out.offered) / seconds : 0.0;
  out.shed_rate = out.offered > 0 ? static_cast<double>(out.shed) /
                                        static_cast<double>(out.offered)
                                  : 0.0;
  out.admitted = bench::quantiles(*latency);
  return out;
}

void print_closed(const char* name, const ClosedLoopResult& r) {
  std::printf("%-12s %9.0f rows/s  %6.2f rows/batch  p50 %7.3f  p90 %7.3f  "
              "p99 %7.3f  p999 %7.3f ms  (%llu ok, %llu shed, %llu failed, "
              "%llu invalid)\n",
              name, r.rows_per_sec, r.rows_per_batch, r.latency.p50_ms,
              r.latency.p90_ms, r.latency.p99_ms, r.latency.p999_ms,
              static_cast<unsigned long long>(r.tally.ok),
              static_cast<unsigned long long>(r.tally.shed),
              static_cast<unsigned long long>(r.tally.failed),
              static_cast<unsigned long long>(r.tally.invalid));
}

}  // namespace

int main() {
  bench::BenchTelemetry telemetry;
  const bool smoke = common::env_int("FSDA_SMOKE", 0) != 0;
  // Saturation needs enough closed-loop clients to keep queue depth (and
  // therefore micro-batch size) up while a batch is in flight.
  const auto clients = static_cast<std::size_t>(
      common::env_int("FSDA_CLIENTS", smoke ? 4 : 32));
  const double loop_seconds = smoke ? 1.0 : 4.0;
  const double overload_seconds = smoke ? 1.0 : 3.0;

  data::Gen5GCConfig config = data::Gen5GCConfig::quick();
  if (!smoke) {
    config = data::Gen5GCConfig();
    config.source_samples = 960;
    config.target_pool_samples = 320;
    config.target_test_samples = 480;
  }
  const data::DomainSplit split = data::generate_5gc(config);
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 5, 7);
  std::printf("bench_serving: %zu features, %zu classes, %s mode, AVX2 %s, "
              "%zu clients\n",
              split.source_train.num_features(),
              split.source_train.num_classes, smoke ? "smoke" : "full",
              la::gemm_avx2_available() ? "on" : "off", clients);

  baselines::FsReconMethod method;
  baselines::DAContext context{split.source_train, shots,
                               models::make_classifier_factory("mlp"), 42};
  method.fit(context);
  core::FsGanPipeline& pipeline = method.pipeline();
  const std::size_t classes = split.source_train.num_classes;
  std::printf("packed plans %s\n",
              pipeline.serving_plans_active() ? "active" : "UNAVAILABLE");

  // Every phase's daemon tracks the same SLO target in its own tracker.
  const auto serve_options = [] {
    serve::ServeOptions o;
    o.slo.latency_target_ms = kSloTargetMs;
    o.slo.gauge_prefix = "serve.slo";
    return o;
  };
  obs::FlightRecorder::global().set_enabled(true);

  const la::Matrix& test = split.target_test.x;

  // -- Phase 1a: closed-loop, micro-batching disabled -----------------------
  ClosedLoopResult batch1;
  {
    serve::ServeOptions opt = serve_options();
    opt.batch.min_batch_rows = 1;
    opt.batch.max_batch_rows = 1;
    serve::ServeDaemon daemon(pipeline, opt);
    daemon.start();
    batch1 = run_closed_loop(daemon, test, classes, clients, loop_seconds);
    daemon.stop();
  }
  print_closed("batch=1", batch1);

  // -- Phase 1b + 3: closed-loop adaptive, hot-swaps injected mid-run -------
  // A second published generation for the swapper to roll back and forth to.
  const core::CandidateOutcome second =
      pipeline.build_candidate_generation(shots, pipeline.options().fs);
  if (second.generation == nullptr) {
    std::fprintf(stderr, "bench_serving: no second generation: %s\n",
                 second.reason.c_str());
    return 1;
  }
  pipeline.promote_generation(second.generation);
  ClosedLoopResult adaptive;
  std::uint64_t swaps = 0;
  {
    serve::ServeOptions opt = serve_options();  // adaptive (cap 64)
    serve::ServeDaemon daemon(pipeline, opt);
    daemon.start();
    std::atomic<bool> stop_swapper{false};
    std::thread swapper([&] {
      while (!stop_swapper.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        if (stop_swapper.load(std::memory_order_relaxed)) break;
        // Swaps the active and previous generations: serving slots must
        // rebind transparently.
        pipeline.registry().rollback();
        ++swaps;
      }
    });
    adaptive = run_closed_loop(daemon, test, classes, clients, loop_seconds);
    stop_swapper.store(true, std::memory_order_relaxed);
    swapper.join();
    daemon.stop();
  }
  print_closed("adaptive", adaptive);
  const double ratio = batch1.rows_per_sec > 0
                           ? adaptive.rows_per_sec / batch1.rows_per_sec
                           : 0.0;
  std::printf("adaptive/batch=1 throughput ratio: %.2fx (target >= 1.5x), "
              "%llu hot-swaps, %llu failed, %llu invalid\n",
              ratio, static_cast<unsigned long long>(swaps),
              static_cast<unsigned long long>(adaptive.tally.failed),
              static_cast<unsigned long long>(adaptive.tally.invalid));

  // -- Phase 2: open-loop overload against a small admission queue ----------
  OverloadResult overload;
  {
    serve::ServeOptions opt = serve_options();
    opt.max_queue_depth = 64;
    serve::ServeDaemon daemon(pipeline, opt);
    daemon.start();
    const double offered_rate =
        std::max(2000.0, 2.0 * adaptive.rows_per_sec);
    overload = run_open_loop(daemon, test, offered_rate, overload_seconds);
    daemon.stop();
  }
  std::printf("overload: offered %.0f req/s, shed rate %.1f%% "
              "(%llu of %llu), admitted p50 %.3f p99 %.3f ms "
              "(SLO %.0f ms: %s)\n",
              overload.offered_per_sec, 100.0 * overload.shed_rate,
              static_cast<unsigned long long>(overload.shed),
              static_cast<unsigned long long>(overload.offered),
              overload.admitted.p50_ms, overload.admitted.p99_ms,
              kSloTargetMs,
              overload.admitted.p99_ms <= kSloTargetMs ? "met" : "MISSED");

  // -- Artifacts ------------------------------------------------------------
  const std::string journal_path =
      bench::out_path("BENCH_serving_journal.jsonl");
  const std::string trace_path = bench::out_path("BENCH_serving_trace.json");
  obs::FlightRecorder::global().set_enabled(false);
  if (obs::FlightRecorder::global().dump_to_file(journal_path) &&
      obs::jsonl_to_perfetto(journal_path, trace_path)) {
    std::printf("flight journal %s, perfetto trace %s\n", journal_path.c_str(),
                trace_path.c_str());
  }

  const std::string path = bench::out_path("BENCH_serving.json");
  std::ofstream out(path);
  if (out) {
    char line[2048];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"serving\",\"smoke\":%s,\"features\":%zu,"
        "\"classes\":%zu,\"avx2\":%s,\"clients\":%zu,"
        "\"slo_target_ms\":%.1f,"
        "\"batch1\":{\"rows_per_sec\":%.1f,\"rows_per_batch\":%.2f,"
        "\"p50_ms\":%.4f,\"p99_ms\":%.4f},"
        "\"adaptive\":{\"rows_per_sec\":%.1f,\"rows_per_batch\":%.2f,"
        "\"p50_ms\":%.4f,\"p90_ms\":%.4f,\"p99_ms\":%.4f,\"p999_ms\":%.4f},"
        "\"throughput_ratio\":%.3f,"
        "\"hot_swap\":{\"swaps\":%llu,\"failed\":%llu,\"invalid\":%llu},"
        "\"overload\":{\"offered_per_sec\":%.1f,\"offered\":%llu,"
        "\"accepted\":%llu,\"shed\":%llu,\"shed_rate\":%.4f,"
        "\"admitted_p50_ms\":%.4f,\"admitted_p99_ms\":%.4f,"
        "\"p99_within_slo\":%s}}\n",
        smoke ? "true" : "false", split.source_train.num_features(), classes,
        la::gemm_avx2_available() ? "true" : "false", clients, kSloTargetMs,
        batch1.rows_per_sec, batch1.rows_per_batch, batch1.latency.p50_ms,
        batch1.latency.p99_ms, adaptive.rows_per_sec, adaptive.rows_per_batch,
        adaptive.latency.p50_ms, adaptive.latency.p90_ms,
        adaptive.latency.p99_ms, adaptive.latency.p999_ms, ratio,
        static_cast<unsigned long long>(swaps),
        static_cast<unsigned long long>(adaptive.tally.failed),
        static_cast<unsigned long long>(adaptive.tally.invalid),
        overload.offered_per_sec,
        static_cast<unsigned long long>(overload.offered),
        static_cast<unsigned long long>(overload.accepted),
        static_cast<unsigned long long>(overload.shed), overload.shed_rate,
        overload.admitted.p50_ms, overload.admitted.p99_ms,
        overload.admitted.p99_ms <= kSloTargetMs ? "true" : "false");
    out << line;
    std::printf("results written to %s\n", path.c_str());
  }
  return 0;
}
