// Training-path benchmark: row-parallel staged passes, backward-pass packed
// GEMM kernels and fused SIMD Adam (DESIGN.md section 12), on the paper's
// 442-feature 5GC telemetry shapes.
//
// For each reconstructor (CGAN, VAE, VanillaAE) the bench times a fit and
// reports fit seconds, ms/step, the GEMM pack seconds and the epochs the fit
// ran.  The CGAN stops on its holdout-MSE plateau, so `epochs` is only its
// cap: compare fit_s across commits only where epochs_run matches.  One JSON
// line of results goes to BENCH_training.json under the bench output
// directory (CI uploads it as an artifact so the perf trajectory is tracked).
//
// Knobs: FSDA_SMOKE=1 shrinks shapes and epochs for CI smoke runs;
// FSDA_METRICS_OUT / FSDA_TRACE behave as in every other bench.
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/autoencoder.hpp"
#include "core/cgan.hpp"
#include "core/vae.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "nn/backend.hpp"
#include "obs/metrics.hpp"

using namespace fsda;

namespace {

struct FitResult {
  double seconds = 0.0;
  double ms_per_step = 0.0;
  double pack_seconds = 0.0;
  std::size_t epochs_run = 0;
};

struct TrainingData {
  la::Matrix x_inv;
  la::Matrix x_var;
  std::vector<std::int64_t> labels;
};

TrainingData make_data(std::size_t n, std::size_t inv, std::size_t var,
                       std::uint64_t seed) {
  common::Rng rng(seed);
  TrainingData d;
  d.x_inv = la::Matrix(n, inv, 0.0);
  d.x_var = la::Matrix(n, var, 0.0);
  for (auto& v : d.x_inv.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : d.x_var.data()) v = rng.uniform(-1.0, 1.0);
  d.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) d.labels[i] = static_cast<int>(i % 3);
  return d;
}

double steps_per_second() {
  return obs::MetricsRegistry::global()
      .gauge("training.steps_per_second", "")
      .value();
}

/// Epochs the last fit ran: the CGAN's history; the VAE and the autoencoder
/// have no early stop and run their whole budget.
std::size_t epochs_run(const core::Reconstructor& model,
                       std::size_t budget) {
  const auto* gan = dynamic_cast<const core::ConditionalGAN*>(&model);
  return gan != nullptr ? gan->history().size() : budget;
}

FitResult timed_fit(core::Reconstructor& model, const TrainingData& d,
                    std::size_t budget) {
  const double pack0 = nn::gemm_pack_seconds();
  common::Stopwatch watch;
  model.fit(d.x_inv, d.x_var, d.labels, 3);
  FitResult r;
  r.seconds = watch.seconds();
  const double sps = steps_per_second();
  r.ms_per_step = sps > 0.0 ? 1e3 / sps : 0.0;
  r.pack_seconds = nn::gemm_pack_seconds() - pack0;
  r.epochs_run = epochs_run(model, budget);
  return r;
}

void print_row(const char* name, const FitResult& r) {
  std::printf("%-14s %10.2f %12.3f %10.3f %10zu\n", name, r.seconds,
              r.ms_per_step, r.pack_seconds, r.epochs_run);
}

}  // namespace

int main() {
  bench::BenchTelemetry telemetry;
  const bool smoke = common::env_int("FSDA_SMOKE", 0) != 0;

  // Full mode uses the paper's 442-feature 5GC layout (roughly two thirds
  // of the features are drift-invariant); smoke shrinks everything so the
  // bench finishes in CI seconds.
  const std::size_t inv_dim = smoke ? 24 : 294;
  const std::size_t var_dim = smoke ? 12 : 148;
  const std::size_t n = smoke ? 192 : 768;
  const std::size_t epochs = smoke ? 3 : 12;

  // hidden stays empty = auto, which resolves to the paper's width rule
  // (256 for the 442-feature layout, Section V-C3); smoke shrinks it.
  // Batch 192 keeps the steps GEMM-dominated.
  const std::size_t batch = smoke ? 64 : 192;
  core::CganOptions gan_opts = core::CganOptions::quick();
  gan_opts.epochs = epochs;
  gan_opts.batch_size = batch;
  gan_opts.hidden.clear();
  if (smoke) gan_opts.hidden = {64, 64};
  core::VaeOptions vae_opts = core::VaeOptions::quick();
  vae_opts.epochs = epochs;
  vae_opts.batch_size = batch;
  vae_opts.hidden = gan_opts.hidden;
  core::AutoencoderOptions ae_opts = core::AutoencoderOptions::quick();
  ae_opts.epochs = epochs;
  ae_opts.batch_size = batch;
  ae_opts.hidden = gan_opts.hidden;

  const TrainingData data = make_data(n, inv_dim, var_dim, 20260808);
  std::printf(
      "bench_training: %zu+%zu features, %zu samples, %zu epochs, %s mode, "
      "AVX2 %s\n",
      inv_dim, var_dim, n, epochs, smoke ? "smoke" : "full",
      la::gemm_avx2_available() ? "on" : "off");

  // Repeated fits, keeping the fastest: the hosts this runs on share cores,
  // and scheduling noise otherwise dominates.
  const std::size_t reps = smoke ? 1 : 3;
  const auto run = [&](core::Reconstructor& model) {
    FitResult best = timed_fit(model, data, epochs);
    for (std::size_t rep = 1; rep < reps; ++rep) {
      const FitResult r = timed_fit(model, data, epochs);
      if (r.seconds < best.seconds) best = r;
    }
    return best;
  };

  // Untimed warmup on a throwaway model: faults in the allocator arenas and
  // spins the core up before the first timed fit.
  {
    core::CganOptions warm_opts = gan_opts;
    warm_opts.epochs = 1;
    core::ConditionalGAN warm(inv_dim, var_dim, warm_opts, 11);
    run(warm);
  }

  core::ConditionalGAN gan(inv_dim, var_dim, gan_opts, 7);
  const FitResult gan_r = run(gan);

  core::VaeReconstructor vae(inv_dim, var_dim, vae_opts, 7);
  const FitResult vae_r = run(vae);

  core::AutoencoderReconstructor ae(inv_dim, var_dim, ae_opts, 7);
  const FitResult ae_r = run(ae);

  std::printf("\n%-14s %10s %12s %10s %10s\n", "model", "fit(s)", "ms/step",
              "pack(s)", "epochs");
  print_row("CGAN", gan_r);
  print_row("VAE", vae_r);
  print_row("VanillaAE", ae_r);
  std::printf("GEMM pack time, CGAN fit: %.3fs (%.1f%% of fit)\n",
              gan_r.pack_seconds,
              gan_r.seconds > 0.0 ? 100.0 * gan_r.pack_seconds / gan_r.seconds
                                  : 0.0);

  const std::string path = bench::out_path("BENCH_training.json");
  std::ofstream out(path);
  if (out) {
    char line[1024];
    std::snprintf(
        line, sizeof(line),
        "{\"bench\":\"training\",\"smoke\":%s,\"inv_dim\":%zu,"
        "\"var_dim\":%zu,\"samples\":%zu,\"epochs\":%zu,\"avx2\":%s,"
        "\"cgan\":{\"fit_s\":%.3f,\"ms_per_step\":%.3f,"
        "\"pack_seconds\":%.4f,\"epochs_run\":%zu},"
        "\"vae\":{\"fit_s\":%.3f,\"ms_per_step\":%.3f,\"epochs_run\":%zu},"
        "\"ae\":{\"fit_s\":%.3f,\"ms_per_step\":%.3f,\"epochs_run\":%zu}}"
        "\n",
        smoke ? "true" : "false", inv_dim, var_dim, n, epochs,
        la::gemm_avx2_available() ? "true" : "false", gan_r.seconds,
        gan_r.ms_per_step, gan_r.pack_seconds, gan_r.epochs_run,
        vae_r.seconds, vae_r.ms_per_step, vae_r.epochs_run, ae_r.seconds,
        ae_r.ms_per_step, ae_r.epochs_run);
    out << line;
    std::printf("results written to %s\n", path.c_str());
  }
  return 0;
}
