#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "fixture.hpp"
#include "la/gemm.hpp"
#include "ladder.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_export.hpp"
#include "serve/daemon.hpp"
#include "serve/uds.hpp"
#include "socket_load.hpp"

namespace perfbench {

using namespace fsda;

namespace {

/// Set-ups per run; setup_s is their median.  Two, because set-up is
/// dominated by training (~9 s) and every run pays for each one.
constexpr std::size_t kSetups = 2;
/// Open-loop socket rates, requests per second.  Both are absolute and
/// frozen: `low` is per-element telemetry; `high` is about half the socket
/// goodput this layout reached on a 4-vCPU x86-64 (AVX2) VM when the
/// benchmark was written (15k-30k req/s), low enough that CPU steal from
/// other tenants does not push it into saturation.  Nothing in a run
/// derives a rate from a measurement, so the offered load does not move
/// with the code.
constexpr double kLowRps = 2000.0;
constexpr double kHighRps = 8000.0;
/// Latency limit on p99 for goodput_rps, ms.
constexpr double kP99LimitMs = 2.0;
/// A rate step has a growing backlog when more than this many seconds of
/// arrivals are still unanswered when its schedule ends.
constexpr double kBacklogSeconds = 0.010;
constexpr double kSearchStepSeconds = 0.5;
constexpr double kSearchFactor = 1.25;
constexpr std::size_t kSearchMaxSteps = 10;
/// Shares of --seconds for the fixed-rate steps and the rate search.
constexpr double kLowShare = 0.45;
constexpr double kHighShare = 0.25;
constexpr double kSearchShare = 0.3;
/// How long a step waits for outstanding replies after its schedule ends;
/// with shedding off only a lost reply takes this long.
constexpr double kDrainSeconds = 5.0;
/// One connection, so one server reader thread makes every submit.  With
/// two, ShardedQueue's depth counter can underflow for an instant (a worker
/// pops and decrements an item whose push has not incremented yet), and an
/// admission on the other reader thread then sheds ShedQueueFull.
constexpr std::size_t kConnections = 1;
/// Drift schedule.
constexpr std::size_t kDriftedFeatures = 8;
constexpr double kShift = 5.0;
constexpr std::size_t kWarmupBatches = 4;
constexpr std::size_t kPostPromotionBatches = 16;
constexpr std::size_t kStableBatches = 128;
constexpr std::size_t kCycleCapBatches = 100;  // synchronous: batches to promote
constexpr double kCycleCapSeconds = 60.0;      // background: time to promote
constexpr double kFeedPeriodS = 0.004;         // background labelled feed
constexpr std::size_t kNovelDomains = 10;
/// Socket requests due this long after a promotion count as "around the
/// swap".
constexpr double kSwapWindowS = 0.100;
/// |acc over the socket - acc in process| allowed on the probe set: both
/// draw their own reconstruction noise, so they agree only statistically.
constexpr double kAccTolerance = 0.05;
/// Recorder-off / recorder-on block pairs for trace_overhead_frac.
constexpr std::size_t kOverheadPairs = 3;

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-6;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string socket_path(const RunArgs& args) {
  return args.out_dir + "/s" + std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------- set-up

/// The default ServeOptions with shedding off.  How many requests a run
/// sheds follows host stalls (a stalled generator catches up in a burst
/// that fills the queue and burns the SLO budget), not the code; without
/// shedding a stall shows as queueing latency and every request is answered.
serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.max_queue_depth = std::size_t{1} << 20;
  o.shed_burn_rate = 0.0;
  return o;
}

/// A daemon (serve_options()) behind a UdsServer.
struct SocketStack {
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::unique_ptr<serve::UdsServer> server;

  SocketStack() = default;
  SocketStack(const SocketStack&) = delete;
  SocketStack& operator=(const SocketStack&) = delete;
  ~SocketStack() { reset(); }

  /// Starts daemon and listener and waits for the first Pong.
  bool start(core::FsGanPipeline& pipeline, const std::string& path) {
    daemon = std::make_unique<serve::ServeDaemon>(pipeline, serve_options());
    daemon->start();
    server = std::make_unique<serve::UdsServer>(*daemon, path);
    if (!server->start()) return false;
    serve::UdsClient client;
    return client.connect(path) && client.ping();
  }
  void reset() {
    if (server) server->stop();
    if (daemon) daemon->stop();
    server.reset();
    daemon.reset();
  }
};

/// Builds the fixture kSetups times; `start(fixture)` brings up whatever the
/// workload serves through (and must tear down the previous one first).
/// Reports the median of each stage, stamps the environment, and returns
/// the last fixture.
std::unique_ptr<Fixture> set_up(const RunArgs& args, Report& report,
                                const std::function<bool(Fixture&)>& start) {
  std::vector<double> data, train, started, total;
  std::unique_ptr<Fixture> fx;
  for (std::size_t k = 0; k < kSetups; ++k) {
    std::unique_ptr<Fixture> next = make_fixture(args.seed);
    const std::int64_t t0 = now_ns();
    const bool ok = start(*next);
    next->times.start_s = static_cast<double>(now_ns() - t0) * 1e-9;
    report.check(ok, "set-up " + std::to_string(k) + " started");
    data.push_back(next->times.data_s);
    train.push_back(next->times.train_s);
    started.push_back(next->times.start_s);
    total.push_back(next->times.total());
    fx = std::move(next);  // the previous fixture is unused by now
  }
  report.e2e("setup_s", summarize(total).p50, "s");
  report.layer("setup.data_s", summarize(data).p50, "s");
  report.layer("setup.train_s", summarize(train).p50, "s");
  report.layer("setup.start_s", summarize(started).p50, "s");
  report.check(fx->pipeline->serving_plans_active(), "packed plans active");
  report.env("commit", args.commit);
  report.env("workload", args.workload);
  report.env("seed", std::to_string(args.seed));
  report.env("seconds", fmt(args.seconds));
  report.env("trace", args.trace ? "1" : "0");
  report.env("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.env("isa", la::gemm_avx2_available() ? "avx2+fma" : "scalar");
  report.env("layout", "5gc-quick");
  report.env("features", std::to_string(fx->source.num_features()));
  report.env("classes", std::to_string(fx->pipeline->num_classes()));
  report.env("model", "mlp classifier, cgan reconstructor (FS+GAN), packed plans");
  report.env("setups", std::to_string(kSetups));
  return fx;
}

void stamp_daemon(Report& report) {
  const serve::ServeOptions o = serve_options();
  std::ostringstream os;
  os << "workers=" << o.workers << " shards=" << o.queue_shards
     << " max_depth=" << o.max_queue_depth << " batch=" << o.batch.min_batch_rows
     << ".." << o.batch.max_batch_rows << " shed_burn=" << o.shed_burn_rate
     << " slo_min_depth=" << o.slo_shed_min_depth << " connections="
     << kConnections << " low_rps=" << kLowRps << " high_rps=" << kHighRps;
  report.env("daemon", os.str());
}

void stamp_loop(const core::DriftLoopOptions& lo, Report& report) {
  std::ostringstream os;
  os << (lo.background ? "background" : "synchronous")
     << " warm_readapt=" << lo.warm_readapt << " batch=" << kBatchRows
     << " buffer=" << lo.buffer_capacity << " drifted_features="
     << kDriftedFeatures << " shift=" << kShift;
  report.env("drift_loop", os.str());
}

void report_usage(const Usage& before, Report& report) {
  const Usage after = usage_now();
  report.layer("cpu_user_s", after.user_s - before.user_s, "s");
  report.layer("cpu_sys_s", after.sys_s - before.sys_s, "s");
  report.layer("ctxsw_vol", after.ctxsw_vol - before.ctxsw_vol, "count");
  report.layer("ctxsw_invol", after.ctxsw_invol - before.ctxsw_invol, "count");
}

// ---------------------------------------------------------------- tracing

/// The flight recorder across a traced run: on before set-up (so training
/// scopes are captured), one snapshot at the end of set-up, one at the end
/// of the run; both become layer metrics and one Perfetto file.  Every
/// member is a no-op in an untraced run.
class Trace {
 public:
  explicit Trace(const RunArgs& args) : args_(args) {
    if (!args_.trace) return;
    auto& recorder = obs::FlightRecorder::global();
    recorder.set_thread_ring_capacity(1 << 17);
    recorder.reset();
    recorder.set_enabled(true);
  }

  void after_setup(Report& report) {
    if (!args_.trace) return;
    setup_ = obs::FlightRecorder::global().snapshot();
    report.layer("cgan.fit_ms.setup", summarize(scope_ms(setup_, "cgan.fit")).p50,
                 "ms");
    report.layer("train.steps_per_s.setup", steps_per_s(), "1/s");
  }

  /// Recorder-off vs recorder-on blocks of the same measurement, alternated
  /// so drift in the host's speed hits both sides alike; reports the
  /// relative change of the pooled medians.
  void overhead(const std::function<std::vector<double>()>& block,
                Report& report) const {
    if (!args_.trace) return;
    auto& recorder = obs::FlightRecorder::global();
    std::vector<double> off, on;
    for (std::size_t i = 0; i < kOverheadPairs; ++i) {
      recorder.set_enabled(false);
      const std::vector<double> a = block();
      off.insert(off.end(), a.begin(), a.end());
      recorder.set_enabled(true);
      const std::vector<double> b = block();
      on.insert(on.end(), b.begin(), b.end());
    }
    const double p_off = summarize(off).p50;
    report.layer("trace_overhead_frac",
                 p_off > 0.0 ? summarize(on).p50 / p_off - 1.0 : 0.0, "fraction");
  }

  /// Stops recording, reports the journal-derived layer metrics and writes
  /// the Perfetto trace.  build/validate scopes come from the drift loop;
  /// a workload without one reports them from a rung instead.
  void finish(Report& report) {
    if (!args_.trace) return;
    auto& recorder = obs::FlightRecorder::global();
    recorder.set_enabled(false);
    obs::Journal run = recorder.snapshot();
    auto scope = [&](const char* name, const std::string& metric) {
      report.layer(metric, summarize(scope_ms(run, name)).p50, "ms");
    };
    if (!scope_ms(run, "readapt.build").empty()) {
      scope("readapt.build", "readapt.build_ms");
      scope("readapt.validate", "readapt.validate_ms");
    }
    scope("readapt.stats", "readapt.stats_ms");
    scope("readapt.search", "readapt.search_ms");
    scope("readapt.refit", "readapt.refit_ms");
    scope("readapt.compile", "readapt.compile_ms");
    scope("cgan.fit", "cgan.fit_ms");
    report.layer("train.steps_per_s", steps_per_s(), "1/s");
    // One trace for the whole run: the intern table only grows, so the
    // later snapshot's names resolve the set-up events too.
    obs::Journal all = std::move(setup_);
    all.events.insert(all.events.end(), run.events.begin(), run.events.end());
    all.names = run.names;
    all.dropped_total += run.dropped_total;
    report.layer("obs.events", static_cast<double>(all.events.size()), "count");
    report.layer("obs.dropped_events", static_cast<double>(all.dropped_total),
                 "count");
    const std::string path = args_.out_dir + "/trace-" + args_.workload +
                             "-seed" + std::to_string(args_.seed) + ".json";
    report.check(obs::write_perfetto_file(all, path), "perfetto trace written");
    report.env("perfetto_trace", path);
  }

 private:
  static double steps_per_s() {
    return obs::MetricsRegistry::global().gauge("training.steps_per_second").value();
  }

  const RunArgs& args_;
  obs::Journal setup_;
};

// ---------------------------------------------------------------- helpers

/// Counts a step's requests as operations and checks its replies.
void account(const LoadStep& s, const std::string& what, Report& report) {
  report.ops(s.sent, s.failed());
  report.check(s.invalid == 0, what + ": every reply valid");
}

/// p50 plus p90/p99 where the samples support them (ten beyond).
void report_latency(const std::string& suffix, const Summary& lat,
                    Report& report) {
  report.e2e("lat_p50_ms" + suffix, lat.p50, "ms");
  for (const auto& [pm, name] : {std::pair{900, "lat_p90_ms"}, {990, "lat_p99_ms"}}) {
    if (lat.tail_permille >= pm) report.e2e(name + suffix, lat.at(pm), "ms");
  }
}

void report_step(const std::string& suffix, const LoadStep& s, Report& report) {
  const Summary lat = summarize(s.lat_ms);
  const Summary late = summarize(s.late_ms);
  report_latency("." + suffix, lat, report);
  report.e2e("gen.late_p99_ms." + suffix, late.at(990), "ms");
  report.e2e("ops_failed." + suffix, static_cast<double>(s.failed()), "count");
  report.env("step." + suffix,
             "rate=" + fmt(s.rate) + " sent=" + std::to_string(s.sent) +
                 " ok=" + std::to_string(s.ok) + " shed_queue_full=" +
                 std::to_string(s.shed_queue_full) + " shed_slo=" +
                 std::to_string(s.shed_slo) + " errors=" +
                 std::to_string(s.error_frames) + " timeouts=" +
                 std::to_string(s.timeouts) + " inflight_end=" +
                 std::to_string(s.inflight_end) + " samples=" +
                 std::to_string(lat.count) + " tail=" + lat.tail_name());
  // The generator fell behind its schedule when its own p99 lateness
  // exceeds the latency limit: such a run measured its client, not the
  // server.
  if (late.at(990) > kP99LimitMs) {
    report.env("warning", suffix + ": generator fell behind (late p99 " +
                              fmt(late.at(990)) + " ms)");
  }
}

struct CycleStats {
  std::vector<double> detect_rows, recover_ms, mitigate_ms;
  std::size_t post_rows = 0, post_correct = 0;
  std::size_t cycles = 0, promoted = 0, warm = 0, rejects = 0;
  std::vector<data::Dataset> trigger_snapshots;

  /// Books one cycle's outcome (times on the now_ns() clock; `trigger` < 0
  /// when the detector never fired in the cycle).
  void record(bool did_promote, std::int64_t onset, std::int64_t trigger,
              std::int64_t promoted_at, bool recon_warm, std::uint64_t rejected,
              Report& report) {
    ++cycles;
    rejects += rejected;
    report.op(did_promote && rejected == 0);
    if (!did_promote) return;
    ++promoted;
    report.check(trigger >= 0, "promotion follows a trigger in its own cycle");
    warm += recon_warm ? 1 : 0;
    recover_ms.push_back(ms_between(trigger, promoted_at));
    mitigate_ms.push_back(ms_between(onset, promoted_at));
  }

  void report_to(Report& report) const {
    const Summary rec = summarize(recover_ms);
    report.e2e("detect_rows", summarize(detect_rows).p50, "rows");
    report.e2e("recover_p50_ms", rec.p50, "ms");
    report.e2e("mitigate_p50_ms", summarize(mitigate_ms).p50, "ms");
    if (rec.tail_permille > 0) report.e2e("recover_tail_ms", rec.tail, "ms");
    report.e2e("cycles", static_cast<double>(cycles), "count");
    const double acc = post_rows > 0 ? static_cast<double>(post_correct) /
                                           static_cast<double>(post_rows)
                                     : 0.0;
    report.e2e("acc_recovered", acc, "fraction");
    report.e2e("accuracy", acc, "fraction");
    report.env("recover_summary", "n=" + std::to_string(rec.count) +
                                      " tail=" + rec.tail_name());
    report.layer("promotions", static_cast<double>(promoted), "count");
    report.layer("readapt.rejects", static_cast<double>(rejects), "count");
    report.layer("readapt.recon_warm_frac",
                 promoted > 0 ? static_cast<double>(warm) / promoted : 0.0,
                 "fraction");
    report.check(promoted == cycles, "every drift cycle promoted");
  }
};

bool reconstructor_warm(const core::FsGanPipeline& p) {
  const core::GenerationPtr g = p.active_generation();
  return g != nullptr && g->reconstructor != nullptr &&
         g->reconstructor->warm_started();
}

// ---------------------------------------------------------------- serve-steady

void serve_steady(const RunArgs& args, Report& report) {
  const std::string path = socket_path(args);
  // Declared before what serves through it, so it is destroyed last.
  std::unique_ptr<Fixture> fx;
  SocketStack stack;
  Trace trace(args);
  fx = set_up(args, report, [&](Fixture& f) {
    stack.reset();
    return stack.start(*f.pipeline, path);
  });
  trace.after_setup(report);
  stamp_daemon(report);
  serve::ServeDaemon& daemon = *stack.daemon;
  SocketLoad load(path, kConnections, fx->probe.x, fx->pipeline->num_classes());
  report.check(load.connect(), "load generator connects");
  common::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 11);
  const Usage usage0 = usage_now();

  // Daemon-side samples taken on the generator's thread between sends.
  std::size_t depth_max = 0;
  double wait_ms = 0.0;
  auto sample = [&](std::int64_t) {
    depth_max = std::max(depth_max, daemon.queue_depth());
    wait_ms = daemon.recent_wait_ms();
  };
  auto rows_per_batch = [](const serve::ServeDaemon::Stats& a,
                           const serve::ServeDaemon::Stats& b) {
    const double batches = static_cast<double>(b.batches - a.batches);
    return batches > 0 ? static_cast<double>(b.batched_rows - a.batched_rows) / batches
                       : 0.0;
  };

  account(load.run(kLowRps, 0.5, rng, kDrainSeconds), "warm-up", report);

  const serve::ServeDaemon::Stats s0 = daemon.stats();
  const LoadStep low =
      load.run(kLowRps, kLowShare * args.seconds, rng, kDrainSeconds, sample);
  const serve::ServeDaemon::Stats s1 = daemon.stats();
  const double low_wait = wait_ms;
  account(low, "low", report);
  report_step("low", low, report);

  const LoadStep high =
      load.run(kHighRps, kHighShare * args.seconds, rng, kDrainSeconds, sample);
  const serve::ServeDaemon::Stats s2 = daemon.stats();
  const double high_wait = wait_ms;
  account(high, "high", report);
  report_step("high", high, report);

  // Goodput: the highest offered rate whose p99 stays under the limit with
  // no growing backlog and no more failures than `low` showed.  Steps go up
  // from `high` while they pass (down while they fail) until one crosses.
  const double low_fail_frac =
      low.sent > 0 ? static_cast<double>(low.failed()) / low.sent : 0.0;
  auto passes = [&](const LoadStep& s) {
    const Summary lat = summarize(s.lat_ms);
    return lat.tail_permille >= 990 && lat.at(990) <= kP99LimitMs &&
           static_cast<double>(s.inflight_end) <= kBacklogSeconds * s.rate &&
           static_cast<double>(s.failed()) <=
               std::ceil(low_fail_frac * static_cast<double>(s.sent));
  };
  double goodput = 0.0;
  double rate = kHighRps;
  bool going_up = true;
  std::string steps;
  const std::int64_t search_end =
      now_ns() + static_cast<std::int64_t>(kSearchShare * args.seconds * 1e9);
  for (std::size_t k = 0; k < kSearchMaxSteps && (k < 2 || now_ns() < search_end);
       ++k) {
    // A failing step is measured once more: one host stall inside half a
    // second must not end the search.
    LoadStep s = load.run(rate, kSearchStepSeconds, rng, kDrainSeconds);
    account(s, "rate search", report);
    if (!passes(s)) {
      s = load.run(rate, kSearchStepSeconds, rng, kDrainSeconds);
      account(s, "rate search", report);
    }
    const bool ok = passes(s);
    steps += fmt(rate) + (ok ? ":ok " : ":fail ");
    if (k == 0) going_up = ok;
    if (ok) goodput = std::max(goodput, rate);
    if (going_up != ok) break;  // crossed the limit
    if (!going_up && rate <= kLowRps) break;
    rate = going_up ? rate * kSearchFactor : rate / kSearchFactor;
  }
  report.env("goodput_steps", steps);
  report.e2e("goodput_rps", goodput, "1/s");

  // Held-out labelled probe through the socket, cross-checked in process.
  const ProbeResult probe = load.probe(fx->probe.x, fx->probe.y);
  report.ops(probe.rows, probe.failed);
  const double acc_served =
      static_cast<double>(probe.correct) / static_cast<double>(probe.rows);
  la::Matrix proba;
  fx->pipeline->predict_proba_into(fx->probe.x, proba);
  const double acc_local = static_cast<double>(count_correct(proba, fx->probe.y)) /
                           static_cast<double>(fx->probe.y.size());
  report.check(probe.answered == probe.rows, "every probe row answered");
  report.check(std::abs(acc_served - acc_local) <= kAccTolerance,
               "socket accuracy " + fmt(acc_served) + " matches in-process " +
                   fmt(acc_local));
  report.e2e("acc_served", acc_served, "fraction");
  report.e2e("acc_local", acc_local, "fraction");

  // The names every workload reports.  Its lat_p50_ms is the `low` step's,
  // as in drift-novel-loaded: far from saturation, CPU steal from other
  // tenants slows it by a little, whereas at `high` the lost capacity turns
  // into queueing and multiplies it.
  report.e2e("lat_p50_ms", summarize(low.lat_ms).p50, "ms");
  report.e2e("accuracy", acc_served, "fraction");
  report.e2e("peak_rss_mb", usage_now().max_rss_mb, "MB");

  if (args.trace) {
    report.layer("daemon.rows_per_batch.low", rows_per_batch(s0, s1), "rows");
    report.layer("daemon.rows_per_batch.high", rows_per_batch(s1, s2), "rows");
    report.layer("daemon.wait_p90_ms.low", low_wait, "ms");
    report.layer("daemon.wait_p90_ms.high", high_wait, "ms");
    report.layer("daemon.depth_max", static_cast<double>(depth_max), "count");
    const serve::ServeDaemon::Stats st = daemon.stats();
    report.layer("daemon.shed_queue_full", static_cast<double>(st.shed_queue_full),
                 "count");
    report.layer("daemon.shed_slo", static_cast<double>(st.shed_slo), "count");
    report_usage(usage0, report);
    trace.overhead([&] {
      const LoadStep s = load.run(kLowRps, 0.5, rng, kDrainSeconds);
      account(s, "overhead probe", report);
      return s.lat_ms;
    }, report);
    serving_ladder(*fx, daemon, path, report);
    loop_ladder(*fx, report);
    fnode_replay(*fx, {fx->shots}, report);
    // No drift here, so time one cold build + validate through the
    // generation API directly.
    readapt_rung(*fx, fx->stream->batch(kTrainedDomain, 2 * kBatchRows), report);
    report.layer("promotions", 0.0, "count");
    report.layer("readapt.rejects", 0.0, "count");
    report.layer("readapt.recon_warm_frac", 0.0, "fraction");
    trace.finish(report);
  }
}

// ---------------------------------------------------------------- drift

/// One drift -> recovery cycle of a synchronous loop: serves `domain` until
/// the loop promotes (the trigger, re-adaptation and promotion all happen
/// inside one serve() call), then kPostPromotionBatches more batches whose
/// accuracy is the recovered accuracy.  `stats` null = burn-in, unrecorded.
void sync_cycle(Fixture& fx, core::DriftLoop& loop, std::size_t domain,
                CycleStats* stats, Report& report) {
  const core::DriftLoopStats before = loop.stats();
  la::Matrix proba;
  auto serve_one = [&](const data::Dataset& d) {
    loop.serve(d.x, d.y, proba);
    report.op(rows_on_simplex(proba) && proba.rows() == d.size());
  };
  const std::int64_t onset = now_ns();
  std::int64_t trigger = -1;
  std::size_t served = 0;
  while (loop.stats().promotions == before.promotions &&
         served < kCycleCapBatches) {
    const data::Dataset d = fx.stream->batch(domain);
    const std::int64_t t0 = now_ns();
    serve_one(d);
    ++served;
    if (trigger < 0 && loop.stats().triggers > before.triggers) {
      trigger = t0;
      if (stats != nullptr) {
        stats->detect_rows.push_back(static_cast<double>(served * kBatchRows));
        stats->trigger_snapshots.push_back(loop.buffer().snapshot());
      }
    }
  }
  const std::int64_t promoted_at = now_ns();
  const bool promoted = loop.stats().promotions > before.promotions;
  if (stats == nullptr) {
    report.check(promoted, "burn-in cycle promoted");
    return;
  }
  stats->record(promoted, onset, trigger, promoted_at,
                reconstructor_warm(*fx.pipeline),
                loop.stats().rejections - before.rejections, report);
  if (!promoted) return;
  for (std::size_t i = 0; i < kPostPromotionBatches; ++i) {
    const data::Dataset d = fx.stream->batch(domain);
    serve_one(d);
    stats->post_rows += d.size();
    stats->post_correct += count_correct(proba, d.y);
  }
}

void drift_recurring(const RunArgs& args, Report& report) {
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<core::DriftLoop> loop;
  Trace trace(args);
  fx = set_up(args, report, [&](Fixture& f) {
    loop.reset();
    // Two regimes, +shift and -shift on the SAME leaf features, so every
    // recovery rediscovers the same partition and the warm path engages.
    intervene_leaves(f.scm, kFirstDriftDomain, kDriftedFeatures, kShift, 3,
                     {kTrainedDomain});
    intervene_leaves(f.scm, kFirstDriftDomain + 1, kDriftedFeatures, -kShift, 3,
                     {kTrainedDomain});
    loop = std::make_unique<core::DriftLoop>(*f.pipeline,
                                             drift_loop_options(f, false));
    return true;
  });
  trace.after_setup(report);
  stamp_loop(drift_loop_options(*fx, false), report);
  const Usage usage0 = usage_now();
  la::Matrix proba;

  // Warm-up on the trained regime (detector suppressed: it would score the
  // trained target against the source reference), then one unrecorded
  // burn-in recovery -- the first one changes the partition, so it is cold
  // by construction.
  loop->detector().suppress(kWarmupBatches);
  for (std::size_t i = 0; i < kWarmupBatches; ++i) {
    const data::Dataset d = fx->stream->batch(kTrainedDomain);
    loop->serve(d.x, d.y, proba);
  }
  sync_cycle(*fx, *loop, kFirstDriftDomain, nullptr, report);

  // Cycles alternate the two regimes until the time is up; each ends with
  // a stable segment that measures the loop's own serving rate.
  CycleStats cycles;
  std::vector<double> call_ms;
  double stable_rows = 0.0, stable_s = 0.0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t k = 0; k == 0 || now_ns() < end; ++k) {
    const std::size_t domain = kFirstDriftDomain + 1 - (k % 2);
    sync_cycle(*fx, *loop, domain, &cycles, report);
    for (std::size_t i = 0; i < kStableBatches; ++i) {
      const data::Dataset d = fx->stream->batch(domain);
      const std::int64_t t0 = now_ns();
      loop->serve(d.x, d.y, proba);
      const std::int64_t t1 = now_ns();
      report.op(rows_on_simplex(proba) && proba.rows() == d.size());
      call_ms.push_back(ms_between(t0, t1));
      stable_rows += static_cast<double>(d.size());
      stable_s += static_cast<double>(t1 - t0) * 1e-9;
    }
  }
  cycles.report_to(report);
  report.e2e("loop_rows_per_s", stable_s > 0 ? stable_rows / stable_s : 0.0,
             "rows/s");
  report_latency("", summarize(call_ms), report);
  report.e2e("peak_rss_mb", usage_now().max_rss_mb, "MB");

  if (args.trace) {
    report_usage(usage0, report);
    const data::Dataset batch = fx->stream->batch(kFirstDriftDomain);
    trace.overhead([&] {
      std::vector<double> ms;
      for (std::size_t i = 0; i < 50; ++i) {
        const std::int64_t t0 = now_ns();
        loop->serve(batch.x, batch.y, proba);
        ms.push_back(ms_between(t0, now_ns()));
      }
      return ms;
    }, report);
    loop.reset();
    // The serving rungs need a daemon and a socket; this workload has
    // neither, so bring them up just for the ladder.
    SocketStack stack;
    const std::string path = socket_path(args);
    report.check(stack.start(*fx->pipeline, path), "ladder daemon started");
    serving_ladder(*fx, *stack.daemon, path, report);
    const serve::ServeDaemon::Stats st = stack.daemon->stats();
    report.layer("daemon.shed_queue_full", static_cast<double>(st.shed_queue_full),
                 "count");
    report.layer("daemon.shed_slo", static_cast<double>(st.shed_slo), "count");
    stack.reset();
    loop_ladder(*fx, report);
    fnode_replay(*fx, cycles.trigger_snapshots, report);
    trace.finish(report);
  }
}

void drift_novel_loaded(const RunArgs& args, Report& report) {
  const std::string path = socket_path(args);
  std::unique_ptr<Fixture> fx;
  SocketStack stack;
  std::unique_ptr<core::DriftLoop> loop;
  Trace trace(args);
  fx = set_up(args, report, [&](Fixture& f) {
    loop.reset();
    stack.reset();
    // A fresh leaf-feature set per regime: every recovery finds a new
    // partition, so re-adaptation runs cold.
    std::vector<std::size_t> taken{kTrainedDomain};
    for (std::size_t k = 0; k < kNovelDomains; ++k) {
      const std::size_t domain = kFirstDriftDomain + k;
      intervene_leaves(f.scm, domain, kDriftedFeatures,
                       k % 2 == 0 ? kShift : -kShift, 3 + 11 * k, taken);
      taken.push_back(domain);
    }
    if (!stack.start(*f.pipeline, path)) return false;
    loop = std::make_unique<core::DriftLoop>(*f.pipeline,
                                             drift_loop_options(f, true));
    return true;
  });
  trace.after_setup(report);
  stamp_daemon(report);
  stamp_loop(drift_loop_options(*fx, true), report);
  core::FsGanPipeline& pipeline = *fx->pipeline;
  SocketLoad load(path, kConnections, fx->probe.x, pipeline.num_classes());
  report.check(load.connect(), "load generator connects");
  const Usage usage0 = usage_now();

  // Socket load at `low` for as long as the drift cycles run, in 1 s steps;
  // the generator also timestamps every generation change it observes.
  std::vector<LoadStep> steps;
  std::vector<std::int64_t> swaps;
  std::jthread generator([&](std::stop_token stop) {
    common::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 23);
    std::uint64_t gen = pipeline.registry().active_id();
    auto watch = [&](std::int64_t now) {
      const std::uint64_t g = pipeline.registry().active_id();
      if (g != gen) {
        gen = g;
        swaps.push_back(now);
      }
    };
    while (!stop.stop_requested()) {
      steps.push_back(load.run(kLowRps, 1.0, rng, kDrainSeconds, watch));
    }
  });

  // The labelled feed: one 64-row batch every kFeedPeriodS.
  la::Matrix proba;
  std::int64_t next_due = now_ns();
  auto paced_serve = [&](const data::Dataset& d) {
    next_due += static_cast<std::int64_t>(kFeedPeriodS * 1e9);
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<std::int64_t>(next_due - now_ns(), 0)));
    loop->serve(d.x, d.y, proba);
    report.op(rows_on_simplex(proba) && proba.rows() == d.size());
  };
  loop->detector().suppress(kWarmupBatches);
  for (std::size_t i = 0; i < kWarmupBatches; ++i) {
    paced_serve(fx->stream->batch(kTrainedDomain));
  }

  // Cold cycles take seconds each: start another only when the last one's
  // duration still fits in the measured time (at least one always runs).
  CycleStats cycles;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t last_cycle_ns = 0;
  for (std::size_t k = 0;
       k < kNovelDomains && (k == 0 || now_ns() + last_cycle_ns < end); ++k) {
    const std::size_t domain = kFirstDriftDomain + k;
    const core::DriftLoopStats before = loop->stats();
    const std::int64_t onset = now_ns();
    const std::int64_t cap = onset + static_cast<std::int64_t>(kCycleCapSeconds * 1e9);
    std::int64_t trigger = -1;
    std::size_t served = 0;
    // In background mode the promotion is applied by the serve() call that
    // finds the worker's result, so "promoted" is observed per batch.
    while (loop->stats().promotions == before.promotions && now_ns() < cap) {
      const std::int64_t t0 = now_ns();
      paced_serve(fx->stream->batch(domain));
      ++served;
      if (trigger < 0 && loop->stats().triggers > before.triggers) {
        trigger = t0;
        cycles.detect_rows.push_back(static_cast<double>(served * kBatchRows));
        cycles.trigger_snapshots.push_back(loop->buffer().snapshot());
      }
    }
    const bool promoted = loop->stats().promotions > before.promotions;
    cycles.record(promoted, onset, trigger, now_ns(), reconstructor_warm(pipeline),
                  loop->stats().rejections - before.rejections, report);
    if (!promoted) break;
    for (std::size_t i = 0; i < kPostPromotionBatches; ++i) {
      const data::Dataset d = fx->stream->batch(domain);
      paced_serve(d);
      cycles.post_rows += d.size();
      cycles.post_correct += count_correct(proba, d.y);
    }
    last_cycle_ns = now_ns() - onset;
  }
  generator.request_stop();
  generator.join();
  loop->drain();

  std::vector<double> lat, late, around_swap;
  for (const LoadStep& s : steps) {
    account(s, "low under drift", report);
    lat.insert(lat.end(), s.lat_ms.begin(), s.lat_ms.end());
    late.insert(late.end(), s.late_ms.begin(), s.late_ms.end());
    for (std::size_t i = 0; i < s.lat_ms.size(); ++i) {
      for (const std::int64_t w : swaps) {
        const double dt = static_cast<double>(s.due_ns[i] - w) * 1e-9;
        if (dt >= 0.0 && dt < kSwapWindowS) around_swap.push_back(s.lat_ms[i]);
      }
    }
  }
  cycles.report_to(report);
  const Summary l = summarize(lat);
  report_latency(".low", l, report);
  report.e2e("gen.late_p99_ms.low", summarize(late).at(990), "ms");
  report.e2e("lat_p50_ms", l.p50, "ms");
  report.e2e("peak_rss_mb", usage_now().max_rss_mb, "MB");

  if (args.trace) {
    const Summary sw = summarize(around_swap);
    report.layer("swap.lat_p50_ms", sw.p50, "ms");
    report.layer("swap.lat_tail_ms", sw.tail, "ms");
    report.layer("swap.lat_tail_permille", sw.tail_permille, "permille");
    report.layer("swap.requests", static_cast<double>(sw.count), "count");
    const serve::ServeDaemon::Stats st = stack.daemon->stats();
    report.layer("daemon.shed_queue_full", static_cast<double>(st.shed_queue_full),
                 "count");
    report.layer("daemon.shed_slo", static_cast<double>(st.shed_slo), "count");
    report_usage(usage0, report);
    loop.reset();
    common::Rng rng(args.seed + 5);
    trace.overhead([&] {
      const LoadStep s = load.run(kLowRps, 0.5, rng, kDrainSeconds);
      account(s, "overhead probe", report);
      return s.lat_ms;
    }, report);
    serving_ladder(*fx, *stack.daemon, path, report);
    loop_ladder(*fx, report);
    fnode_replay(*fx, cycles.trigger_snapshots, report);
    trace.finish(report);
  }
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "serve-steady" || name == "drift-recurring" ||
         name == "drift-novel-loaded";
}

void run_workload(const RunArgs& args, Report& report) {
  if (args.workload == "serve-steady") {
    serve_steady(args, report);
  } else if (args.workload == "drift-recurring") {
    drift_recurring(args, report);
  } else {
    drift_novel_loaded(args, report);
  }
}

}  // namespace perfbench
