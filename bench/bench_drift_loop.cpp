// Closed-loop drift-response benchmark (DESIGN.md section 13): wires a
// DriftLoop around a trained FS+GAN pipeline and scores the loop's
// *operational* metrics on streaming 5GC telemetry -- detection latency,
// recovery time, and accuracy-over-time -- under three drift scenarios:
//
//   abrupt    a new set of previously-invariant feature mechanisms is
//             intervened on at a known batch; the bench measures batches
//             to detector latch and batches to a validated promotion while
//             serving never stops;
//   gradual   the stream ramps linearly from the adapted regime to another
//             intervened domain over several batches;
//   poisoned  an unsatisfiable validation gate forces every candidate to be
//             rejected -- the loop must keep serving the active generation,
//             reject the bad candidate, and back off.
//
// Every batch's predictions are checked (finite, rows sum to 1); a single
// failed or blocked predict_proba call fails the bench.  One JSON line of
// results goes to BENCH_drift.json under the bench output directory and the
// process exits non-zero when any closed-loop expectation is violated, so
// CI can gate on it.
//
// The flight recorder runs for the whole bench: injection points are marked
// with "bench.drift_injected" instants, so wall-clock detection latency
// (injection -> drift.trigger) and recovery time (injection ->
// readapt.promote) are measured from the journal rather than batch counts,
// and the full timeline is written to BENCH_drift_trace.json, loadable at
// https://ui.perfetto.dev.
//
// Knobs: FSDA_SMOKE=1 shrinks the dataset and batch budgets for CI smoke
// runs; FSDA_METRICS_OUT / FSDA_TRACE behave as in every other bench.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/ours.hpp"
#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/drift_loop.hpp"
#include "core/pipeline.hpp"
#include "data/gen5gc.hpp"
#include "data/scm.hpp"
#include "models/factory.hpp"
#include "obs/journal.hpp"
#include "obs/perfetto_export.hpp"

using namespace fsda;

namespace {

constexpr std::size_t kBatchRows = 64;

struct StreamSampler {
  const data::Scm* scm = nullptr;
  common::Rng rng{12345};
  std::size_t label_cursor = 0;

  /// One serving batch from `domain` with round-robin labels.
  data::Dataset batch(std::size_t domain, std::size_t rows = kBatchRows) {
    data::Dataset d;
    d.num_classes = data::k5gcNumClasses;
    d.y.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      d.y[i] = static_cast<std::int64_t>(label_cursor++ % data::k5gcNumClasses);
    }
    d.x = scm->sample(domain, d.y, rng);
    return d;
  }

  /// A batch whose first `rows * frac` rows come from `to` and the rest
  /// from `from` -- the gradual-ramp mixture.
  data::Dataset mixed(std::size_t from, std::size_t to, double frac) {
    data::Dataset a = batch(from);
    const data::Dataset b = batch(to);
    const auto cut = static_cast<std::size_t>(frac * kBatchRows);
    for (std::size_t r = 0; r < cut; ++r) {
      for (std::size_t c = 0; c < a.x.cols(); ++c) a.x(r, c) = b.x(r, c);
      a.y[r] = b.y[r];
    }
    return a;
  }
};

/// Observed-feature index -> SCM node index (for registering interventions
/// on specific emitted columns).
std::vector<std::size_t> observed_node_indices(const data::Scm& scm) {
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < scm.num_nodes(); ++i) {
    if (scm.node(i).observed) nodes.push_back(i);
  }
  return nodes;
}

/// Registers strong soft interventions for `domain` on `count` observed
/// features that domain 1 (the trained target) left alone, starting the
/// stride scan at `salt` so successive domains drift disjoint sets.
std::size_t drift_fresh_features(data::Scm& scm, std::size_t domain,
                                 std::size_t count, std::size_t salt) {
  const std::vector<std::size_t> nodes = observed_node_indices(scm);
  std::vector<char> taken(nodes.size(), 0);
  for (std::size_t d = 1; d < domain; ++d) {
    for (const std::size_t f : scm.intervened_observed_features(d)) {
      taken[f] = 1;
    }
  }
  const std::size_t stride = std::max<std::size_t>(nodes.size() / count, 1);
  std::size_t planted = 0;
  for (std::size_t k = 0; k < nodes.size() && planted < count; ++k) {
    const std::size_t f = (salt + k * stride) % nodes.size();
    if (taken[f]) continue;
    taken[f] = 1;
    data::SoftIntervention iv;
    iv.shift = (planted % 2 == 0) ? 5.0 : -5.0;  // far outside source range
    iv.extra_noise = 0.1;
    scm.intervene(domain, nodes[f], iv);
    ++planted;
  }
  return planted;
}

double batch_accuracy(const la::Matrix& proba,
                      const std::vector<std::int64_t>& labels) {
  std::size_t hits = 0;
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < proba.cols(); ++c) {
      if (proba(r, c) > proba(r, best)) best = c;
    }
    if (static_cast<std::int64_t>(best) == labels[r]) ++hits;
  }
  return proba.rows() > 0
             ? static_cast<double>(hits) / static_cast<double>(proba.rows())
             : 0.0;
}

bool valid_distributions(const la::Matrix& proba) {
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double total = 0.0;
    for (double v : proba.row(r)) {
      if (!std::isfinite(v)) return false;
      total += v;
    }
    if (std::abs(total - 1.0) > 1e-6) return false;
  }
  return true;
}

struct Harness {
  core::DriftLoop* loop = nullptr;
  StreamSampler* stream = nullptr;
  std::size_t failed_predictions = 0;
  std::vector<double> accuracy_trace;

  double serve(const data::Dataset& d) {
    la::Matrix proba;
    loop->serve(d.x, d.y, proba);
    if (!valid_distributions(proba)) ++failed_predictions;
    const double acc = batch_accuracy(proba, d.y);
    accuracy_trace.push_back(acc);
    return acc;
  }

  /// Serves `domain` until `done` holds or `max_batches` pass; returns the
  /// number of batches served.  Paces gently so a background fit makes
  /// progress without thousands of idle serve calls.
  template <typename Pred>
  std::size_t serve_until(std::size_t domain, Pred done,
                          std::size_t max_batches) {
    std::size_t served = 0;
    while (!done() && served < max_batches) {
      serve(stream->batch(domain));
      ++served;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return served;
  }

  double mean_accuracy(std::size_t last_n) const {
    const std::size_t n = std::min(last_n, accuracy_trace.size());
    if (n == 0) return 0.0;
    double total = 0.0;
    for (std::size_t i = accuracy_trace.size() - n; i < accuracy_trace.size();
         ++i) {
      total += accuracy_trace[i];
    }
    return total / static_cast<double>(n);
  }
};

/// Wall-clock loop timings recovered from the event journal: for the k-th
/// "bench.drift_injected" mark, the delay to the first drift.trigger at or
/// after it and to the first readapt.promote after that trigger.
struct JournalTimes {
  double detect_ms = -1.0;
  double recover_ms = -1.0;
};

JournalTimes journal_times(const obs::Journal& journal, std::size_t mark_idx) {
  JournalTimes t;
  std::int64_t mark_ns = -1;
  std::size_t seen_marks = 0;
  std::int64_t trigger_ns = -1;
  for (const auto& e : journal.events) {
    const std::string& name = journal.name(e.name_id);
    if (mark_ns < 0) {
      if (name == "bench.drift_injected" && seen_marks++ == mark_idx) {
        mark_ns = static_cast<std::int64_t>(e.ts_ns);
      }
      continue;
    }
    if (trigger_ns < 0) {
      if (name == "drift.trigger") {
        trigger_ns = static_cast<std::int64_t>(e.ts_ns);
        t.detect_ms = static_cast<double>(trigger_ns - mark_ns) / 1e6;
      }
      continue;
    }
    if (name == "readapt.promote") {
      t.recover_ms =
          static_cast<double>(static_cast<std::int64_t>(e.ts_ns) - mark_ns) /
          1e6;
      break;
    }
  }
  return t;
}

core::DriftLoopOptions loop_options(const causal::FNodeOptions& fs,
                                    std::size_t warmup, bool warm_readapt) {
  core::DriftLoopOptions o;
  o.detector.window = kBatchRows;
  o.detector.min_window = kBatchRows / 2;
  o.detector.patience = 2;
  o.detector.cooldown = 4;
  // Above the small-window PSI noise floor over a hundred-plus monitored
  // features, far below the out-of-range mass the +/-5 shifts produce.
  o.detector.psi_trigger = 3.0;
  o.detector.psi_clear = 1.5;
  o.detector.ks_trigger = 0.6;
  o.detector.ks_clear = 0.4;
  o.buffer_capacity = 512;
  o.min_adaptation_samples = 64;
  o.fs = fs;
  o.validation.min_accuracy = 0.3;
  o.validation.max_accuracy_drop = 0.25;
  o.validation.max_uniform_fraction = 0.5;
  o.probation_batches = 4;
  o.warmup_batches = warmup;
  o.background = true;  // the production mode: serving never blocks
  o.warm_readapt = warm_readapt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchTelemetry telemetry;
  const bool smoke = common::env_int("FSDA_SMOKE", 0) != 0;
  // --warm (default) / --cold: toggle the re-adaptation fast path, so the
  // same closed-loop scenario measures either mode (bench_readapt runs the
  // head-to-head comparison).
  bool warm_readapt = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cold") {
      warm_readapt = false;
    } else if (arg == "--warm") {
      warm_readapt = true;
    } else {
      std::printf("unknown argument %s (expected --warm or --cold)\n",
                  arg.c_str());
      return 2;
    }
  }
  const data::Gen5GCConfig config =
      smoke ? data::Gen5GCConfig::tiny() : data::Gen5GCConfig::quick();
  const std::size_t drifted_features = smoke ? 4 : 8;
  const std::size_t detect_cap = 20;  // batches allowed until latch
  // Batches allowed until promotion: at ~5 ms pacing this must comfortably
  // cover one F-node search (deadline-bounded) plus one CGAN fit at the
  // chosen scale, or the bench times out on slow runners.
  const std::size_t recover_cap = smoke ? 600 : 3000;
  const std::size_t warmup = 6;

  // Domains: 0 source, 1 trained target, 2 abrupt, 3 gradual, 4 poisoned.
  data::Scm scm = data::build_5gc_scm(config);
  drift_fresh_features(scm, 2, drifted_features, 3);
  drift_fresh_features(scm, 3, drifted_features, 11);
  drift_fresh_features(scm, 4, drifted_features, 23);
  StreamSampler stream{&scm, common::Rng(config.seed ^ 0xD81F7ULL)};

  std::printf("closed-loop drift bench: %zu features, %zu-row batches%s\n",
              scm.num_observed(), kBatchRows, smoke ? " (smoke)" : "");

  // Train the pipeline on source + a few shots of domain 1.
  common::Rng label_rng(config.seed);
  data::Dataset source;
  source.num_classes = data::k5gcNumClasses;
  source.y.resize(config.source_samples);
  for (std::size_t i = 0; i < source.y.size(); ++i) {
    source.y[i] = static_cast<std::int64_t>(i % data::k5gcNumClasses);
  }
  source.x = scm.sample(0, source.y, label_rng);
  const data::Dataset shots = stream.batch(1, 2 * data::k5gcNumClasses);

  core::PipelineOptions options;
  options.fs.max_condition_size = 1;
  options.fs.candidate_pool = 4;
  options.fs.max_subsets_per_level = 8;
  options.fs.deadline_ms = 3000;  // bounded re-adaptation response time
  options.use_reconstruction = true;
  options.validation_rows = 64;
  core::FsGanPipeline pipeline(
      models::make_classifier_factory("mlp"),
      baselines::make_reconstructor_factory(baselines::ReconKind::Gan),
      options, /*seed=*/config.seed);
  common::Stopwatch train_watch;
  pipeline.train(source, shots);
  std::printf("pipeline trained in %.2fs (generation %llu)\n",
              train_watch.seconds(),
              static_cast<unsigned long long>(pipeline.registry().active_id()));

  // Flight recorder on for the whole closed loop.  Full-mode phases can
  // serve thousands of batches (two journal events each), so size the
  // per-thread rings well past the default before the first event pins them.
  auto& recorder = obs::FlightRecorder::global();
  recorder.set_thread_ring_capacity(1 << 16);
  recorder.reset();
  recorder.set_enabled(true);

  bool ok = true;
  std::string failure;
  auto expect = [&](bool cond, const std::string& what) {
    if (!cond && ok) {
      ok = false;
      failure = what;
    }
    if (!cond) std::printf("EXPECTATION FAILED: %s\n", what.c_str());
  };

  // -- Phases 1-3: warmup, abrupt drift, gradual ramp ----------------------
  std::size_t abrupt_detect = 0, abrupt_recover = 0;
  std::size_t gradual_detect = 0, gradual_recover = 0;
  double acc_before = 0.0, acc_during = 0.0, acc_after = 0.0, acc_final = 0.0;
  std::uint64_t loop_triggers = 0, loop_promotions = 0, loop_rollbacks = 0;
  std::size_t failed_predictions = 0;
  {
    core::DriftLoop loop(pipeline, loop_options(options.fs, warmup, warm_readapt));
    Harness h{&loop, &stream, 0, {}};
    // Warmup on the trained target regime; the detector (fitted on scaled
    // SOURCE) is suppressed until it rebaselines to the live window.
    loop.detector().suppress(warmup);
    for (std::size_t i = 0; i < warmup; ++i) h.serve(stream.batch(1));
    expect(loop.stats().triggers == 0, "trigger during warmup");
    acc_before = h.mean_accuracy(warmup);

    // Abrupt drift at a known batch: measure batches to latch, then batches
    // to a validated background promotion, serving throughout.
    FSDA_EVENT_INSTANT(obs::EventCategory::System, "bench.drift_injected", 2.0);
    abrupt_detect = h.serve_until(
        2, [&] { return loop.stats().triggers >= 1; }, detect_cap);
    expect(loop.stats().triggers >= 1, "abrupt drift never detected");
    abrupt_recover = h.serve_until(
        2, [&] { return loop.stats().promotions >= 1; }, recover_cap);
    expect(loop.stats().promotions >= 1, "no promotion after abrupt drift");
    expect(pipeline.active_generation() != nullptr &&
               pipeline.active_generation()->provenance == "readapt",
           "promoted generation is not a re-adaptation");
    acc_during = h.mean_accuracy(abrupt_recover);
    for (std::size_t i = 0; i < 6; ++i) h.serve(stream.batch(2));
    acc_after = h.mean_accuracy(6);

    // Gradual ramp from the adapted regime (domain 2) to domain 3.
    const std::uint64_t triggers0 = loop.stats().triggers;
    const std::uint64_t promos0 = loop.stats().promotions;
    const std::size_t ramp = 10;
    FSDA_EVENT_INSTANT(obs::EventCategory::System, "bench.drift_injected", 3.0);
    for (std::size_t i = 0; i < ramp; ++i) {
      h.serve(stream.mixed(2, 3, static_cast<double>(i + 1) /
                                     static_cast<double>(ramp)));
    }
    gradual_detect =
        ramp + h.serve_until(
                   3, [&] { return loop.stats().triggers > triggers0; },
                   detect_cap);
    expect(loop.stats().triggers > triggers0, "gradual drift never detected");
    gradual_recover = h.serve_until(
        3, [&] { return loop.stats().promotions > promos0; }, recover_cap);
    expect(loop.stats().promotions > promos0,
           "no promotion after gradual drift");
    for (std::size_t i = 0; i < 4; ++i) h.serve(stream.batch(3));
    acc_final = h.mean_accuracy(4);

    loop.drain();
    loop_triggers = loop.stats().triggers;
    loop_promotions = loop.stats().promotions;
    loop_rollbacks = loop.stats().rollbacks;
    failed_predictions = h.failed_predictions;
    expect(h.failed_predictions == 0,
           "failed predict_proba calls during the closed loop");
  }
  const std::uint64_t generation_after_gradual = pipeline.registry().active_id();

  // -- Phase 4: poisoned window --------------------------------------------
  // A second loop with an unsatisfiable validation gate: every candidate it
  // builds must be rejected, the active generation must keep serving, and
  // the loop must back off instead of flapping.
  std::uint64_t poisoned_attempts = 0, poisoned_rejections = 0;
  std::size_t poisoned_failed = 0;
  {
    core::DriftLoopOptions po = loop_options(options.fs, warmup, warm_readapt);
    po.validation.min_accuracy = 1.01;  // nothing can pass
    core::DriftLoop loop(pipeline, po);
    Harness h{&loop, &stream, 0, {}};
    loop.detector().suppress(warmup);
    for (std::size_t i = 0; i < warmup; ++i) h.serve(stream.batch(3));
    FSDA_EVENT_INSTANT(obs::EventCategory::System, "bench.drift_injected", 4.0);
    h.serve_until(4, [&] { return loop.stats().triggers >= 1; }, detect_cap);
    expect(loop.stats().triggers >= 1, "poisoned drift never detected");
    h.serve_until(4, [&] { return loop.stats().rejections >= 1; },
                  recover_cap);
    loop.drain();
    poisoned_attempts = loop.stats().attempts;
    poisoned_rejections = loop.stats().rejections;
    poisoned_failed = h.failed_predictions;
    expect(loop.stats().rejections >= 1, "bad candidate was not rejected");
    expect(loop.stats().promotions == 0, "bad candidate was promoted");
    expect(h.failed_predictions == 0,
           "failed predict_proba calls during the poisoned window");
  }
  expect(pipeline.registry().active_id() == generation_after_gradual,
         "active generation changed during the poisoned window");

  // -- Journal-derived timeline --------------------------------------------
  recorder.set_enabled(false);
  const obs::Journal journal = recorder.snapshot();
  const JournalTimes abrupt_times = journal_times(journal, 0);
  const JournalTimes gradual_times = journal_times(journal, 1);
  expect(abrupt_times.detect_ms >= 0.0,
         "journal has no drift.trigger after the abrupt injection mark");
  expect(abrupt_times.recover_ms >= 0.0,
         "journal has no readapt.promote after the abrupt trigger");
  expect(gradual_times.detect_ms >= 0.0,
         "journal has no drift.trigger after the gradual injection mark");
  expect(journal.dropped_total == 0, "journal dropped events");
  const std::string trace_path = bench::out_path("BENCH_drift_trace.json");
  if (obs::write_perfetto_file(journal, trace_path)) {
    std::printf("perfetto trace (%zu events) written to %s\n",
                journal.events.size(), trace_path.c_str());
  }

  std::printf(
      "journal:  abrupt detect %.1f ms / recover %.1f ms, gradual detect "
      "%.1f ms / recover %.1f ms (%zu events, %llu dropped)\n",
      abrupt_times.detect_ms, abrupt_times.recover_ms, gradual_times.detect_ms,
      gradual_times.recover_ms, journal.events.size(),
      static_cast<unsigned long long>(journal.dropped_total));
  std::printf(
      "\nabrupt:   detected in %zu batch(es), recovered in %zu batch(es), "
      "accuracy %.3f -> %.3f -> %.3f\n",
      abrupt_detect, abrupt_recover, acc_before, acc_during, acc_after);
  std::printf(
      "gradual:  detected in %zu batch(es) (10-batch ramp), recovered in "
      "%zu batch(es), accuracy %.3f\n",
      gradual_detect, gradual_recover, acc_final);
  std::printf(
      "poisoned: %llu attempt(s), %llu rejection(s), generation %llu kept\n",
      static_cast<unsigned long long>(poisoned_attempts),
      static_cast<unsigned long long>(poisoned_rejections),
      static_cast<unsigned long long>(generation_after_gradual));
  std::printf("loop totals: %llu trigger(s), %llu promotion(s), %llu "
              "rollback(s), %zu failed prediction(s)\n",
              static_cast<unsigned long long>(loop_triggers),
              static_cast<unsigned long long>(loop_promotions),
              static_cast<unsigned long long>(loop_rollbacks),
              failed_predictions + poisoned_failed);

  const std::string path = bench::out_path("BENCH_drift.json");
  std::ofstream out(path);
  if (out) {
    char line[1024];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"drift_loop\",\"smoke\":%s,\"features\":%zu,"
        "\"batch_rows\":%zu,\"ok\":%s,"
        "\"abrupt\":{\"detect_batches\":%zu,\"recover_batches\":%zu,"
        "\"acc_before\":%.3f,\"acc_during\":%.3f,\"acc_after\":%.3f},"
        "\"gradual\":{\"detect_batches\":%zu,\"recover_batches\":%zu,"
        "\"acc_final\":%.3f},"
        "\"poisoned\":{\"attempts\":%llu,\"rejections\":%llu,"
        "\"generation_stable\":%s},"
        "\"journal\":{\"events\":%zu,\"dropped\":%llu,"
        "\"abrupt_detect_ms\":%.1f,\"abrupt_recover_ms\":%.1f,"
        "\"gradual_detect_ms\":%.1f,\"gradual_recover_ms\":%.1f},"
        "\"triggers\":%llu,\"promotions\":%llu,\"rollbacks\":%llu,"
        "\"failed_predictions\":%zu}\n",
        smoke ? "true" : "false", scm.num_observed(), kBatchRows,
        ok ? "true" : "false", abrupt_detect, abrupt_recover, acc_before,
        acc_during, acc_after, gradual_detect, gradual_recover, acc_final,
        static_cast<unsigned long long>(poisoned_attempts),
        static_cast<unsigned long long>(poisoned_rejections),
        pipeline.registry().active_id() == generation_after_gradual ? "true"
                                                                    : "false",
        journal.events.size(),
        static_cast<unsigned long long>(journal.dropped_total),
        abrupt_times.detect_ms, abrupt_times.recover_ms,
        gradual_times.detect_ms, gradual_times.recover_ms,
        static_cast<unsigned long long>(loop_triggers),
        static_cast<unsigned long long>(loop_promotions),
        static_cast<unsigned long long>(loop_rollbacks),
        failed_predictions + poisoned_failed);
    out << line;
    std::printf("results written to %s\n", path.c_str());
  }

  if (!ok) {
    std::printf("\nFAILED: %s\n", failure.c_str());
    return 1;
  }
  std::printf("\nall closed-loop expectations held\n");
  return 0;
}
