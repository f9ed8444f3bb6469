// fsda::core -- the end-to-end FS / FS+GAN pipeline (paper Fig. 1).
//
// Training (source-only, plus a few-shot target set used *only* by FS):
//   1. fit a [-1,1] min-max scaler on source (Section VI-B normalization);
//   2. run feature separation on scaled source vs. scaled target shots;
//   3. FS+GAN mode: train the downstream classifier on ALL source features
//      (reordered [X_inv | X_var]) and train a reconstructor on source;
//      FS mode: train the classifier on the invariant block only.
// Inference (Fig. 1(c)): scale the target sample, reconstruct its variant
// block from its invariant block (M Monte-Carlo draws, eq. after (9); the
// paper uses M = 1), assemble x̂ = [X_inv, X̂_var], and classify.
//
// Because the classifier is trained exclusively on source data, evolving
// target distributions only ever require re-running FS and retraining the
// reconstructor -- never the network-management model (Section VI-F).
//
// Serving state lives in a ModelRegistry of immutable generations
// (core/model_registry.hpp, DESIGN.md §13): train() publishes generation 1,
// adapt_to_new_target() and the closed drift loop (core/drift_loop.hpp)
// publish successors, and every prediction picks up the active generation
// with one snapshot per batch -- so a background re-adaptation can build,
// validate, and hot-swap a candidate while predictions keep flowing.
//
// Every prediction runs one guarded scoring body (DESIGN.md §15): snapshot
// the generation, rebind the caller's ServeSlot on a hot-swap, quarantine
// non-finite rows, clamp into the envelope, score through the
// generation's InferenceSession, rewrite Reject rows, and guard the output.
// predict_proba_into runs it on a slot the pipeline owns and folds the
// batch's facts into health(); predict_proba_serve runs it on the caller's
// slot and hands the facts back.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "causal/fnode.hpp"
#include "core/feature_separation.hpp"
#include "core/health.hpp"
#include "core/inference_session.hpp"
#include "core/model_registry.hpp"
#include "core/reconstructor.hpp"
#include "data/dataset.hpp"
#include "data/scaler.hpp"
#include "models/classifier.hpp"
#include "obs/drift.hpp"

namespace fsda::core {

/// Inference-time handling of rows whose raw features contain NaN/Inf.
enum class QuarantinePolicy {
  /// Replace non-finite scaled cells with the scaled midpoint (0) and run
  /// the row through the normal path -- a degraded but usable prediction.
  Impute,
  /// Serve the uniform class distribution for the whole row; the row never
  /// reaches the reconstructor or classifier.
  Reject,
};

struct PipelineOptions {
  causal::FNodeOptions fs;
  /// Monte-Carlo reconstruction draws per sample (paper: M = 1).
  std::size_t monte_carlo_m = 1;
  /// true = FS+GAN (classifier on all features + reconstruction);
  /// false = FS only (classifier on invariant features).
  bool use_reconstruction = true;
  /// Policy for inference rows with non-finite raw features.
  QuarantinePolicy quarantine = QuarantinePolicy::Impute;
  /// Scaled values are clamped into [-1 - clamp_margin, 1 + clamp_margin]
  /// before reaching any network, so drifted extremes cannot blow up the
  /// reconstructor.  Negative disables clamping.
  double clamp_margin = 0.25;
  /// Rows of scaled source held as a validation reference (deterministic
  /// stride sample) for scoring candidate generations before promotion.
  /// 0 (default) keeps the holdout off: no extra scoring happens at train
  /// time, so the GAN noise stream and every downstream Monte-Carlo draw
  /// are bit-identical to a pipeline without generation validation.  The
  /// drift loop requires a non-zero value.
  std::size_t validation_rows = 0;
};

/// Acceptance gates a candidate generation must clear before promotion.
struct ValidationOptions {
  /// Hard floor on held-out source accuracy.
  double min_accuracy = 0.5;
  /// Max allowed drop vs. the active generation's accuracy at its publish.
  double max_accuracy_drop = 0.10;
  /// Reject when more than this fraction of validation rows score as the
  /// uniform distribution (a collapsed reconstructor pushes every row
  /// through the uniform-output guard).
  double max_uniform_fraction = 0.25;
  /// A row counts as uniform when every probability is within this of 1/C.
  double uniform_tol = 1e-6;
};

/// Outcome of scoring one candidate generation against the holdout.
struct ValidationVerdict {
  bool ok = false;
  double accuracy = 0.0;
  double baseline = 0.0;  ///< active generation's accuracy at its publish
  std::string reason;     ///< empty when ok
};

/// Result of building (not yet validating) a candidate generation.
struct CandidateOutcome {
  std::shared_ptr<ModelGeneration> generation;  ///< null on failure
  std::string reason;                           ///< why generation is null
  HealthReport health;  ///< candidate-fit diagnostics (never health())
};

/// What one guarded scoring call did to its batch.
struct BatchFacts {
  std::size_t quarantined_rows = 0;  ///< rows with non-finite raw features
  std::size_t clamped_cells = 0;     ///< scaled cells clamped into envelope
  std::size_t rejected_rows = 0;     ///< quarantined rows served uniform
  std::size_t nonfinite_output_rows = 0;  ///< rows the output guard rewrote
  double elapsed_ms = 0.0;           ///< wall time of the scoring call
};

/// Re-adaptation fast-path inputs (DESIGN.md §16), assembled by the drift
/// loop at trigger time.  A default-constructed context is the cold build,
/// bit for bit; `warm` switches on every warm layer at once, and each layer
/// degrades to the cold path when its precondition fails (shape mismatch,
/// changed partition, missing previous generation).
struct ReadaptContext {
  /// Label-shift-weighted sufficient statistics over the SCALED few-shot
  /// target rows (same representation the materialized FS path would see;
  /// see FsGanPipeline::weighted_target_stats).  Read only when `warm`:
  /// the F-node search then assembles its correlation matrix in O(d²)
  /// from these plus the pipeline's cached source statistics instead of
  /// rescanning rows.
  const la::GramStats* target_stats = nullptr;
  /// Seed the F-node search from the active generation's separating sets
  /// (causal::FNodeSeed; the partition equals the cold one exactly), and
  /// warm-start the reconstructor refit from the active generation's
  /// weights (reduced epoch cap) when the fresh partition is identical to
  /// the active one.
  bool warm = false;
};

/// The paper's DA framework around a pluggable classifier + reconstructor.
class FsGanPipeline {
 public:
  /// `reconstructor_factory` may be empty when use_reconstruction is false.
  FsGanPipeline(models::ClassifierFactory classifier_factory,
                ReconstructorFactory reconstructor_factory,
                PipelineOptions options, std::uint64_t seed);

  /// Trains the full pipeline.  `target_few_shot` feeds only the FS step.
  /// Like adapt_to_new_target and build_candidate_generation, it hands its
  /// freed pages back to the kernel on return (common::release_free_heap).
  void train(const data::Dataset& source, const data::Dataset& target_few_shot);

  /// Re-runs FS + reconstructor against a new target distribution without
  /// touching the trained classifier (the paper's no-retraining property;
  /// valid in FS+GAN mode only, since FS mode's classifier depends on the
  /// invariant set).  Publishes a new generation serving the FRESH
  /// partition: the AssemblyMap routes the frozen classifier's trained
  /// input order through it, so a changed partition no longer degrades to
  /// the stale one.
  void adapt_to_new_target(const data::Dataset& target_few_shot);

  /// Class probabilities for raw (unscaled) target-domain samples.
  [[nodiscard]] la::Matrix predict_proba(const la::Matrix& x_raw);
  /// Destination-passing predict_proba: identical output, but scaling and
  /// scoring reuse `proba`'s and the pipeline's own slot's buffers -- the
  /// zero-allocation serving loop once warm.  Folds the batch's facts into
  /// health() and the drift gauges and refreshes last_scaled_batch().  Its
  /// session context draws noise from the reconstructor's own stream, so
  /// it reproduces reconstruct() draw for draw.  Safe to call
  /// concurrently with a background build/validate/promote and with
  /// predict_proba_serve; NOT safe to call concurrently with itself,
  /// train(), or adapt_to_new_target().
  /// Returns the batch's facts (the same ones folded into health()).
  BatchFacts predict_proba_into(const la::Matrix& x_raw, la::Matrix& proba);
  [[nodiscard]] std::vector<std::int64_t> predict(const la::Matrix& x_raw);

  /// Per-caller serving state: a pinned generation snapshot, the session
  /// context compiled against it, and a private scaled-input buffer.  One
  /// slot belongs to one thread; with distinct slots, predict_proba_serve
  /// is safe from many threads at once and stays transparent across
  /// hot-swaps (the slot rebinds itself when it notices a new active
  /// generation).
  class ServeSlot {
   public:
    /// Id of the generation the slot is currently bound to (0 = none yet).
    [[nodiscard]] std::uint64_t generation_id() const {
      return generation_ != nullptr ? generation_->id : 0;
    }

   private:
    friend class FsGanPipeline;
    explicit ServeSlot(std::optional<std::uint64_t> noise_seed)
        : noise_seed_(noise_seed) {}
    /// Seed of the slot's private noise stream; empty = the reconstructor's
    /// own stream (the pipeline's slot).
    std::optional<std::uint64_t> noise_seed_;
    std::size_t reserve_rows_ = 0;
    GenerationPtr generation_;
    std::unique_ptr<InferenceSession::ServeContext> ctx_;
    la::Matrix x_scaled_;
  };

  /// Creates a slot whose reconstruction-noise stream derives from
  /// `noise_seed` (give each daemon worker a distinct seed).
  [[nodiscard]] std::unique_ptr<ServeSlot> create_serve_slot(
      std::uint64_t noise_seed) const;

  /// Pre-sizes the slot's buffers for batches of up to `rows` rows; sticky
  /// across hot-swaps (a rebound slot re-reserves to its high-water mark).
  void reserve_serve_slot(ServeSlot& slot, std::size_t rows);

  /// Re-entrant predict for the serving daemon: the same guarded scoring
  /// body as predict_proba_into, on `slot`, so concurrent callers with
  /// distinct slots never race.  Returns the batch's facts instead of
  /// folding them into health() (which is not thread-safe; the atomic
  /// predict.* counters carry the same signals).
  BatchFacts predict_proba_serve(const la::Matrix& x_raw, la::Matrix& proba,
                                 ServeSlot& slot);

  // -- Generation management (the drift loop's toolkit) --------------------

  /// Builds a fresh candidate generation from new few-shot target rows:
  /// re-runs F-node search under `fs` (use a deadline for bounded response
  /// time) and refits the reconstructor for the discovered partition.
  /// Never touches serving state; safe to run on a background thread while
  /// predict_proba keeps serving (but not concurrently with train/adapt).
  /// On failure `generation` is null and `reason` says why.  `ctx` selects
  /// the cold build (default) or the warm fast path.  Emits per-stage
  /// journal scopes (readapt.stats / readapt.search / readapt.refit /
  /// readapt.compile) so recovery time decomposes in the flight recorder,
  /// and a heap.release scope on every exit.
  [[nodiscard]] CandidateOutcome build_candidate_generation(
      const data::Dataset& target_few_shot, const causal::FNodeOptions& fs,
      const ReadaptContext& ctx = {});

  /// Combines per-class GramStats accumulated over scaled target rows into
  /// the label-shift-corrected statistics the FS stats path consumes:
  /// class c gets weight want_c / m_c where want_c mirrors the replication
  /// count label_shift_corrected_cached would materialize for `shots` target
  /// rows and m_c = counts[c] rows were accumulated.  The total weight
  /// equals the materialized path's row count, so the Fisher-z effective
  /// sample size matches.
  [[nodiscard]] la::GramStats weighted_target_stats(
      const std::vector<la::GramStats>& per_class,
      const std::vector<std::size_t>& counts, std::size_t shots) const;

  /// Sufficient statistics over the scaled source (built lazily on first
  /// use, then cached; invalidated by train()).  Not safe concurrently with
  /// itself -- the drift loop serializes adaptations, which is the only
  /// caller.
  [[nodiscard]] const la::GramStats& source_stats();

  /// The fitted input scaler (drift-loop buffers scale their rows with it
  /// so buffered statistics live in the same representation as FS inputs).
  [[nodiscard]] const data::MinMaxScaler& scaler() const { return scaler_; }

  /// Scores a candidate against the held-out source slice: finite scan,
  /// uniform-output fraction, accuracy floor, and max drop vs. the active
  /// generation.  Safe from a background thread while serving runs: the
  /// candidate scores on its own session through a context of its own, on
  /// its own reconstructor's noise stream.
  [[nodiscard]] ValidationVerdict validate_generation(
      const std::shared_ptr<ModelGeneration>& gen, const ValidationOptions& vo);

  /// Atomically publishes a (validated) candidate; returns its id.  Sets
  /// the candidate's validation_accuracy beforehand via the verdict.
  std::uint64_t promote_generation(std::shared_ptr<ModelGeneration> gen);

  /// The registry holding the active + rollback generations.
  [[nodiscard]] ModelRegistry& registry() { return registry_; }
  /// Snapshot of the actively served generation (null before train).
  [[nodiscard]] GenerationPtr active_generation() const {
    return registry_.active();
  }
  /// Scaled source matrix (the drift/PSI reference base).
  [[nodiscard]] const la::Matrix& scaled_source() const {
    return source_scaled_;
  }
  /// The scaled, sanitized form of the batch most recently passed through
  /// predict_proba_into -- what streaming drift detectors should observe.
  [[nodiscard]] const la::Matrix& last_scaled_batch() const {
    return own_slot_->x_scaled_;
  }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  [[nodiscard]] const PipelineOptions& options() const { return options_; }
  /// Raw feature indices of the classifier's trained input order.
  [[nodiscard]] const std::vector<std::size_t>& trained_order() const {
    return trained_order_;
  }

  // ------------------------------------------------------------------------

  /// True once a generation with its InferenceSession is published (every
  /// trained pipeline serves through one; false before train()).
  [[nodiscard]] bool serving_plans_active() const {
    return registry_.active() != nullptr;
  }

  /// Partition of the actively served generation.  The reference stays
  /// valid until the next publish (train/adapt/promote/rollback).
  [[nodiscard]] const SeparationResult& separation() const;
  [[nodiscard]] bool is_trained() const { return trained_; }
  /// Wall seconds of the most recent reconstructor fit, read back from the
  /// `pipeline.reconstructor_fit_seconds` gauge (the gauge is process-wide:
  /// with several pipelines fitting concurrently it reports the last
  /// finished fit).
  [[nodiscard]] double reconstructor_train_seconds() const;

  /// Accumulated guardrail diagnostics: training-time divergence recovery,
  /// fallback activation, and inference-time quarantine/clamp counters.
  /// `health().degraded` is the one flag monitoring should watch.
  [[nodiscard]] const HealthReport& health() const { return health_; }

  /// Resamples the few-shot target set so its label mix matches the source
  /// prior (see pipeline.cpp); public for white-box tests.
  data::Dataset label_shift_corrected(const data::Dataset& source,
                                      const data::Dataset& target_few_shot);
  [[nodiscard]] data::Dataset label_shift_corrected_cached(
      const data::Dataset& target_few_shot) const;

 private:
  /// Fits a reconstructor for `sep` (MeanImpute fallback on divergence),
  /// reporting into `health` -- health_ for train/adapt, the candidate's
  /// own report for background builds.  `seed` salts the fit; `warm_from`
  /// (optional) requests a warm start from a previous reconstructor.
  std::shared_ptr<Reconstructor> fit_reconstructor_for(
      const SeparationResult& sep, HealthReport& health, std::uint64_t seed,
      const Reconstructor* warm_from = nullptr);
  /// Assembles an immutable generation: AssemblyMap for the trained order,
  /// InferenceSession, drift reference over the partition's variant block.
  std::shared_ptr<ModelGeneration> make_generation(
      SeparationResult sep, std::shared_ptr<Reconstructor> reconstructor,
      std::string provenance);
  /// The guarded scoring body behind both predict paths: snapshots the
  /// active generation (rebinding `slot` on a hot-swap), scales,
  /// quarantines and clamps into the slot, scores, rewrites Reject rows,
  /// guards the output, and records the predict.* metrics.
  BatchFacts score(const la::Matrix& x_raw, la::Matrix& proba,
                   ServeSlot& slot);
  /// Scores the holdout on `gen`'s session with a fresh context on the
  /// reconstructor's stream (validation scoring).
  [[nodiscard]] la::Matrix score_holdout(const ModelGeneration& gen);
  /// Scores `gen` on the holdout and stamps gen->validation_accuracy; no-op
  /// (keeps `carry` accuracy) when the holdout is empty.
  void stamp_validation_accuracy(ModelGeneration& gen, double carry);
  /// Publishes per-batch drift gauges (PSI over the variant block,
  /// quarantine rate, clamped fraction); called only with telemetry on.
  void update_drift_gauges(const ModelGeneration& gen,
                           const la::Matrix& x_scaled, std::size_t quarantined,
                           std::size_t clamped);

  models::ClassifierFactory classifier_factory_;
  ReconstructorFactory reconstructor_factory_;
  PipelineOptions options_;
  std::uint64_t seed_;

  data::MinMaxScaler scaler_;
  /// Shared with every generation's session that calls it (non-plan
  /// classifiers), so a pinned generation outlives a retrain.
  std::shared_ptr<models::Classifier> classifier_;
  std::vector<std::size_t> source_class_counts_;
  // Cached scaled source blocks for reconstructor (re)fits.
  la::Matrix source_scaled_;
  std::vector<std::int64_t> source_labels_;
  std::size_t num_classes_ = 0;
  /// Raw feature order the classifier was trained on ([inv | var] of the
  /// training-time partition; invariant-only in FS mode).
  std::vector<std::size_t> trained_order_;
  /// Held-out scaled source slice + labels for candidate validation (empty
  /// when options_.validation_rows == 0).
  la::Matrix validation_x_;
  std::vector<std::int64_t> validation_y_;
  /// Versioned serving state; predict snapshots the active generation once
  /// per batch.
  ModelRegistry registry_;
  /// Movable atomic counter (std::atomic alone would delete the pipeline's
  /// move operations, which test fixtures rely on to return pipelines by
  /// value).  Moving while another thread increments is a race -- same rule
  /// as moving the pipeline mid-serve.
  struct MovableSeq {
    std::atomic<std::uint64_t> value{0};
    MovableSeq() = default;
    MovableSeq(MovableSeq&& other) noexcept
        : value(other.value.load(std::memory_order_relaxed)) {}
    MovableSeq& operator=(MovableSeq&& other) noexcept {
      value.store(other.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
    std::uint64_t fetch_add(std::uint64_t n) {
      return value.fetch_add(n, std::memory_order_relaxed);
    }
  };
  /// Salts candidate reconstructor seeds so repeated re-adaptations explore
  /// different initializations.
  MovableSeq readapt_seq_;
  /// Lazily-built sufficient statistics of the scaled source (stats-path
  /// FS); source_stats_.dim() == 0 means "not built yet".
  la::GramStats source_stats_;
  HealthReport health_;
  bool trained_ = false;

  /// predict_proba_into's slot: draws from the reconstructor's stream.
  std::unique_ptr<ServeSlot> own_slot_{new ServeSlot(std::nullopt)};
};

}  // namespace fsda::core
