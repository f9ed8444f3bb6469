// fsda::core -- numeric health guardrails for the FS+GAN pipeline.
//
// The deployed classifier never retrains (the paper's central property), so
// the adaptation path is the single point of failure: a diverged GAN or one
// NaN-laden telemetry batch silently corrupts every downstream prediction.
// This module supplies the guardrails the pipeline and the reconstructor
// trainers share:
//
//  - blocked finite scans over matrix views (cheap enough for hot paths);
//  - a DivergenceMonitor that flags NaN/Inf losses and sustained loss
//    explosion;
//  - parameter snapshot/rollback helpers for epoch-based trainers, plus a
//    TrainingSentinel that wires monitor + snapshots + a RetryPolicy into
//    one reusable divergence-recovery loop;
//  - a HealthReport accumulated per pipeline stage, surfaced to callers so
//    degraded predictions are always flagged, never silent;
//  - MeanImputeReconstructor, the degraded-mode fallback: class-conditional
//    mean imputation of the variant block, used when every reconstructor
//    training attempt diverges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "core/reconstructor.hpp"
#include "la/view.hpp"
#include "nn/layer.hpp"

namespace fsda::core {

// ---------------------------------------------------------------------------
// Finite scans.

/// True when every element of the view is finite (no NaN / Inf).  Scans row
/// spans blockwise so strided views stay cache-friendly.
[[nodiscard]] bool all_finite(la::ConstMatrixView m);

/// Number of non-finite elements in the view.
[[nodiscard]] std::size_t count_nonfinite(la::ConstMatrixView m);

/// Indices of rows containing at least one non-finite element, ascending.
[[nodiscard]] std::vector<std::size_t> nonfinite_rows(la::ConstMatrixView m);

// ---------------------------------------------------------------------------
// Divergence detection.

struct DivergenceMonitorOptions {
  /// A loss above explosion_factor * (best loss so far) counts as exploding.
  double explosion_factor = 50.0;
  /// Consecutive exploding observations before divergence is declared
  /// (non-finite losses trip immediately, with no patience).
  std::size_t patience = 5;
};

/// Streams loss (or gradient-norm) observations and decides when a training
/// run has diverged: any NaN/Inf observation, or a sustained explosion
/// relative to the best value seen.
class DivergenceMonitor {
 public:
  explicit DivergenceMonitor(DivergenceMonitorOptions options = {});

  /// Feeds one observation; returns true when the run is now diverged.
  bool observe(double value);

  [[nodiscard]] bool diverged() const { return diverged_; }
  [[nodiscard]] double best() const { return best_; }
  /// Forgets all history (for a fresh attempt after rollback).
  void reset();

 private:
  DivergenceMonitorOptions options_;
  double best_;
  std::size_t exploding_streak_ = 0;
  bool diverged_ = false;
  bool seen_any_ = false;
};

// ---------------------------------------------------------------------------
// Parameter snapshots.

/// Deep-copies the current parameter values (not gradients).
[[nodiscard]] std::vector<la::Matrix> capture_parameters(
    const std::vector<nn::Parameter*>& params);

/// Restores previously captured values into the parameters and zeroes their
/// gradients.  Shapes must match the capture.
void restore_parameters(const std::vector<nn::Parameter*>& params,
                        const std::vector<la::Matrix>& snapshot);

/// True when every parameter value is finite.
[[nodiscard]] bool parameters_finite(
    const std::vector<nn::Parameter*>& params);

// ---------------------------------------------------------------------------
// Training sentinel: divergence recovery for epoch-based trainers.

/// Diagnostics of one guarded fit, exposed through Reconstructor::health().
struct TrainHealth {
  bool healthy = true;        ///< last attempt finished without divergence
  bool diverged = false;      ///< any attempt diverged
  std::size_t retries = 0;    ///< extra attempts consumed
  std::size_t rollbacks = 0;  ///< snapshot restores performed
  double final_loss = 0.0;    ///< last observed epoch loss
};

/// Wires a DivergenceMonitor, periodic parameter snapshots, and a
/// RetryPolicy around an epoch-based training loop:
///
///   TrainingSentinel sentinel(params, retry, monitor_options, every);
///   do {
///     // (re)build optimizers at lr * sentinel.lr_scale(), reseed noise
///     // with sentinel.seed_salt()
///     for (epoch ...) {
///       ...train one epoch...
///       if (sentinel.observe_epoch(epoch, loss)) break;  // diverged
///     }
///   } while (sentinel.retry_after_divergence());
///
/// On divergence the parameters are rolled back to the last healthy
/// snapshot (the pre-training state at worst) before the next attempt.
class TrainingSentinel {
 public:
  TrainingSentinel(std::vector<nn::Parameter*> params,
                   common::RetryPolicy retry,
                   DivergenceMonitorOptions monitor_options,
                   std::size_t snapshot_every);

  /// Feeds one epoch loss.  Healthy epochs on a snapshot boundary copy the
  /// parameters into the snapshot's own matrices (no allocation); a
  /// divergent observation rolls back to the last healthy snapshot and
  /// returns true (abort this attempt).
  bool observe_epoch(std::size_t epoch, double loss);

  /// After an aborted attempt: true when the retry budget allows another
  /// attempt (monitor reset, backoff advanced).  False once exhausted.
  bool retry_after_divergence();

  /// Learning-rate multiplier for the current attempt.
  [[nodiscard]] double lr_scale() const { return retry_.backoff_scale(); }
  /// Per-attempt reseeding salt.
  [[nodiscard]] std::uint64_t seed_salt() const { return retry_.seed_salt(); }
  [[nodiscard]] const TrainHealth& health() const { return health_; }

 private:
  std::vector<nn::Parameter*> params_;
  common::RetryController retry_;
  DivergenceMonitor monitor_;
  std::size_t snapshot_every_;
  std::vector<la::Matrix> snapshot_;  ///< last healthy parameter state
  TrainHealth health_;
};

// ---------------------------------------------------------------------------
// Per-stage health reporting.

/// One pipeline stage's outcome.
struct StageHealth {
  std::string stage;
  bool ok = true;
  std::string note;
};

/// Accumulated health of a pipeline instance: training-time recovery events
/// plus inference-time quarantine/clamp counters.  `degraded` is the single
/// flag callers must consult: predictions keep flowing when it is set, but
/// through a fallback path with reduced fidelity.
struct HealthReport {
  bool degraded = false;               ///< any stage fell back
  bool fallback_reconstructor = false; ///< MeanImpute replaced the trained one
  bool fs_truncated = false;           ///< F-node search hit its deadline
  std::size_t reconstructor_retries = 0;
  std::size_t reconstructor_rollbacks = 0;
  std::size_t quarantined_rows = 0;    ///< inference rows with NaN/Inf inputs
  std::size_t rejected_rows = 0;       ///< quarantined rows served uniform
  std::size_t clamped_cells = 0;       ///< scaled cells clamped into envelope
  std::vector<StageHealth> stages;

  /// Appends a stage record; not-ok stages mark the report degraded.
  void note_stage(std::string stage, bool ok, std::string note = {});
  [[nodiscard]] std::string to_string() const;
  /// Single JSON object (flags, counters, per-stage records); embedded
  /// verbatim in metrics snapshots.
  [[nodiscard]] std::string to_json() const;
};

// ---------------------------------------------------------------------------
// Degraded-mode fallback reconstructor.

/// Class-conditional mean imputation of the variant block: fit() caches per
/// class the mean invariant vector and mean variant vector of the (scaled)
/// source; reconstruct() assigns each row to the nearest class centroid in
/// invariant space and emits that class's variant mean.  Deterministic,
/// allocation-light, and incapable of producing non-finite output -- the
/// last line of defence when every GAN/VAE/AE training attempt diverges.
class MeanImputeReconstructor : public Reconstructor {
 public:
  void fit(const la::Matrix& x_inv, const la::Matrix& x_var,
           const std::vector<std::int64_t>& labels,
           std::size_t num_classes) override;

  [[nodiscard]] la::Matrix reconstruct(la::ConstMatrixView x_inv) override;

  /// reconstruct()'s body: writes each row of `x_inv`'s imputed variant
  /// block into `out`.  Const and stateless, so concurrent serving
  /// contexts call it directly.
  void impute_rows(la::ConstMatrixView x_inv, la::MatrixView out) const;

  /// No network: sessions call impute_rows.
  [[nodiscard]] ServingStage serving_stage() override {
    return {nullptr, 0, nullptr, this};
  }

  [[nodiscard]] std::string name() const override { return "MeanImpute"; }

 private:
  la::Matrix inv_means_;  ///< num_classes x inv_dim
  la::Matrix var_means_;  ///< num_classes x var_dim
  std::vector<char> class_present_;
  bool fitted_ = false;
};

}  // namespace fsda::core
