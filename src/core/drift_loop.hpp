// fsda::core -- the closed drift-response loop (DESIGN.md §13).
//
// Wu & Chen's framework mitigates drift *once a human re-runs adaptation*.
// This module closes the loop: a streaming detector watches the serving
// stream, a bounded buffer retains recent quarantine-surviving samples, and
// on a confirmed drift trigger a background worker re-runs F-node search +
// reconstructor training, validates the candidate against held-out source,
// and atomically hot-swaps it in -- with automatic rollback and geometric
// re-arm backoff when a candidate fails validation or regresses on
// probation.  Serving never blocks: predict_proba keeps streaming through
// the active generation while the worker builds the next one.
//
//   Stable -> Triggered -> Adapting -> Validating -> { Promote | Reject }
//       ^         |                                       |        |
//       |         +--- too few buffered samples ----------+        |
//       +---- probation ok ----- Promote                           |
//       +---- Backoff (suppressed detector, geometric) <-- Reject /
//                                                          rollback
//
// Everything here drives the FsGanPipeline's generation API
// (build_candidate_generation / validate_generation / promote_generation);
// the loop owns no model state of its own.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.hpp"
#include "core/pipeline.hpp"
#include "obs/drift.hpp"

namespace fsda::core {

struct DriftDetectorOptions {
  /// Sliding-window length (rows) the detector scores against the
  /// reference.
  std::size_t window = 256;
  /// Rows required before the window is scored at all.
  std::size_t min_window = 64;
  /// PSI trigger/clear thresholds (industry rules of thumb: > 0.25 action).
  /// A window is over trigger when any one monitored feature reaches the
  /// PSI or the KS trigger.
  double psi_trigger = 0.25;
  double psi_clear = 0.10;
  /// Windowed-KS trigger/clear thresholds (max CDF gap in [0, 1]).
  double ks_trigger = 0.35;
  double ks_clear = 0.15;
  /// Consecutive over-trigger observations required before latching -- the
  /// hysteresis that keeps a boundary-oscillating signal from flapping.
  std::size_t patience = 2;
  /// Observations after a latch clears before the detector may latch again.
  std::size_t cooldown = 8;
  /// Histogram binning shared by the PSI and KS scores.
  obs::DriftOptions bins;
};

/// Streaming drift detector over scaled serving batches: a sliding window
/// of recent rows is scored per monitored feature with PSI and a windowed
/// two-sample KS against a fitted reference, with trigger/clear hysteresis
/// plus patience and cooldown so one noisy batch neither fires nor clears
/// the latch.  Single-threaded (call from the serving thread).
class DriftDetector {
 public:
  explicit DriftDetector(DriftDetectorOptions options = {});

  /// Fits the reference distribution of every column of `reference`.
  void fit(const la::Matrix& reference);

  /// Pushes a scaled batch into the sliding window and rescores.  Returns
  /// true exactly when the detector latches (edge-triggered).
  bool observe(const la::Matrix& batch);

  /// Refits the reference to the CURRENT window contents and unlatches.
  /// Call after promoting an adapted generation: the input distribution is
  /// still drifted relative to the original source, but it is the regime
  /// the new generation was built for -- without rebaselining the detector
  /// would re-trigger forever.
  void rebaseline_to_window();

  /// Suppresses scoring (and latching) for the next `batches` observations
  /// -- the loop's geometric backoff after a rejected candidate.
  void suppress(std::size_t batches) { suppressed_ = batches; }

  /// Clears the latch (hysteresis still applies to re-latching).
  void unlatch();

  [[nodiscard]] bool latched() const { return latched_; }
  [[nodiscard]] std::size_t suppressed() const { return suppressed_; }
  [[nodiscard]] std::size_t window_rows() const { return win_rows_; }
  [[nodiscard]] double last_psi_max() const { return last_psi_max_; }
  [[nodiscard]] double last_ks_max() const { return last_ks_max_; }
  [[nodiscard]] std::size_t last_drifted_features() const {
    return last_drifted_; }
  [[nodiscard]] const DriftDetectorOptions& options() const {
    return options_; }

 private:
  void score_window();

  DriftDetectorOptions options_;
  obs::DriftMonitor monitor_;
  std::vector<std::size_t> columns_;
  la::Matrix window_;          // ring buffer of full-width scaled rows
  std::size_t win_rows_ = 0;   // valid rows in the ring
  std::size_t win_next_ = 0;   // next write position
  bool latched_ = false;
  std::size_t over_streak_ = 0;
  std::size_t under_streak_ = 0;
  std::size_t cooldown_left_ = 0;
  std::size_t suppressed_ = 0;
  double last_psi_max_ = 0.0;
  double last_ks_max_ = 0.0;
  std::size_t last_drifted_ = 0;
};

/// Bounded ring of recent labeled raw serving rows -- the sample pool a
/// re-adaptation snapshot draws its few-shot set from.  Rows with
/// non-finite features are skipped at ingest (they were quarantined by the
/// serving path and would be dropped by the F-node screen anyway).
/// Single-threaded (serving thread only); the snapshot is a copy the
/// worker owns outright.
class AdaptationBuffer {
 public:
  explicit AdaptationBuffer(std::size_t capacity, std::size_t num_features,
                            std::size_t num_classes);

  /// Appends the finite rows of a raw batch with their labels.
  void ingest(const la::Matrix& x_raw,
              const std::vector<std::int64_t>& labels);

  [[nodiscard]] std::size_t size() const { return rows_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Copies the buffered rows (oldest first) into a Dataset.
  [[nodiscard]] data::Dataset snapshot() const;

  /// snapshot() into a caller-owned Dataset, reusing its capacity: after
  /// the first call at full ring the snapshot is allocation-free, so
  /// repeated re-adaptation attempts stay allocation-flat.
  void snapshot_into(data::Dataset& out) const;

  /// Turns on incremental per-class sufficient statistics (DESIGN.md §16):
  /// each ingested row is also scaled through `scaler` (unclamped,
  /// un-imputed -- exactly what the FS path's transform would produce) and
  /// rank-1 added to its class's GramStats; ring eviction rank-1 removes
  /// the overwritten row.  Call on an empty buffer.  `scaler` must outlive
  /// the buffer.  Costs O(d²/2) per ingested row.
  void enable_stats(const data::MinMaxScaler* scaler);
  [[nodiscard]] bool stats_enabled() const { return scaler_ != nullptr; }
  /// Per-class statistics over the scaled buffered rows (empty when stats
  /// are disabled).
  [[nodiscard]] const std::vector<la::GramStats>& class_stats() const {
    return class_stats_;
  }
  /// Buffered row count per class (tracks class_stats()).
  [[nodiscard]] const std::vector<std::size_t>& class_counts() const {
    return class_counts_;
  }

 private:
  std::size_t capacity_;
  std::size_t num_classes_;
  la::Matrix x_;
  std::vector<std::int64_t> y_;
  std::size_t rows_ = 0;
  std::size_t next_ = 0;
  // Incremental-statistics state (enable_stats); xs_ mirrors x_'s ring in
  // scaled space so evictions can be rank-1 downdated.
  const data::MinMaxScaler* scaler_ = nullptr;
  la::Matrix xs_;
  la::Matrix row_raw_;     // 1 x d staging for the per-row scaler call
  la::Matrix row_scaled_;  // 1 x d
  std::vector<la::GramStats> class_stats_;
  std::vector<std::size_t> class_counts_;
};

enum class DriftState {
  Stable,      ///< detector unlatched, no adaptation in flight
  Triggered,   ///< latch fired; snapshotting samples
  Adapting,    ///< worker building a candidate generation
  Validating,  ///< candidate built; scoring against the holdout
  Probation,   ///< promoted; watching quarantine rate for a spike
  Backoff,     ///< candidate rejected/rolled back; detector suppressed
};

[[nodiscard]] const char* to_string(DriftState s);

struct DriftLoopOptions {
  /// The detector monitors ALL scaled columns: drift on a
  /// supposedly-invariant feature is precisely what forces a new partition,
  /// so monitoring only the variant block would blind the loop to the case
  /// it exists for.
  DriftDetectorOptions detector;
  /// Capacity of the labeled sample ring.
  std::size_t buffer_capacity = 512;
  /// Minimum buffered samples before a trigger starts an adaptation.
  std::size_t min_adaptation_samples = 64;
  /// F-node options for re-adaptation; unset -> the pipeline's own, which
  /// should carry a deadline_ms for bounded response time.
  std::optional<causal::FNodeOptions> fs;
  ValidationOptions validation;
  /// Batches of post-promotion probation during which a quarantine-rate
  /// spike rolls the promotion back.
  std::size_t probation_batches = 8;
  /// Probation trips when the batch quarantine rate exceeds the
  /// pre-promotion EWMA by this much (absolute).
  double quarantine_spike = 0.25;
  /// Detector suppression after a rejection = base * rearm.backoff_factor^k
  /// (clamped by rearm.max_backoff_scale), where k counts consecutive
  /// rejections.
  std::size_t base_backoff_batches = 4;
  common::RetryPolicy rearm{/*max_attempts=*/64, /*backoff_factor=*/2.0,
                            /*deadline_seconds=*/0.0,
                            /*max_backoff_scale=*/64.0};
  /// Batches before the detector baseline is (re)fit to the live window
  /// instead of the scaled source -- 0 keeps the scaled-source baseline.
  std::size_t warmup_batches = 0;
  /// Run build+validate on a background thread (serving never blocks).
  /// false runs them inline in serve() -- deterministic, for tests.
  bool background = true;
  /// Re-adaptation fast path (DESIGN.md §16): the first attempt after a
  /// trigger runs warm (ReadaptContext::warm) -- sufficient-statistic FS
  /// (the buffer maintains per-class GramStats incrementally), skeleton
  /// warm-start from the active generation's sepsets (cold-identical
  /// partition) and reconstructor warm-start from its weights.  Any
  /// rejection makes the next attempt fully cold (the existing fallback
  /// ladder), and a promotion re-arms the warm path.
  bool warm_readapt = true;
};

struct DriftLoopStats {
  std::uint64_t batches = 0;
  std::uint64_t triggers = 0;
  std::uint64_t attempts = 0;
  std::uint64_t warm_attempts = 0;  ///< attempts that ran the warm fast path
  std::uint64_t promotions = 0;
  std::uint64_t rejections = 0;
  std::uint64_t rollbacks = 0;  ///< rejections + probation rollbacks
  std::uint64_t skipped_no_samples = 0;
  double last_candidate_accuracy = 0.0;
  std::string last_reason;  ///< why the last candidate was rejected
};

/// The closed loop: wire it around a trained FsGanPipeline and route every
/// serving batch through serve().  The pipeline must outlive the loop, and
/// train()/adapt_to_new_target() must not run while the loop is active.
class DriftLoop {
 public:
  DriftLoop(FsGanPipeline& pipeline, DriftLoopOptions options);
  ~DriftLoop();

  DriftLoop(const DriftLoop&) = delete;
  DriftLoop& operator=(const DriftLoop&) = delete;

  /// Scores a raw batch through the pipeline (into `proba`) and advances
  /// the loop: consumes any finished background adaptation, updates the
  /// probation/backoff state, feeds the detector, and starts an adaptation
  /// when the detector latches.  `labels` are the batch's (possibly
  /// delayed) ground-truth labels feeding the adaptation buffer; pass an
  /// empty vector when unavailable -- the batch then serves but cannot
  /// contribute adaptation samples.
  void serve(const la::Matrix& x_raw, const std::vector<std::int64_t>& labels,
             la::Matrix& proba);

  /// Blocks until no adaptation is in flight (test/shutdown hook).
  void drain();

  [[nodiscard]] DriftState state() const { return state_; }
  [[nodiscard]] const DriftLoopStats& stats() const { return stats_; }
  [[nodiscard]] DriftDetector& detector() { return detector_; }
  [[nodiscard]] const AdaptationBuffer& buffer() const { return buffer_; }

 private:
  struct Job {
    /// Points at snapshot_scratch_ (rewritten only while no job is in
    /// flight, so the worker reads it race-free).
    const data::Dataset* shots = nullptr;
    /// Label-shift-weighted target statistics assembled at trigger time on
    /// the serving thread (the buffer's class stats keep mutating as rows
    /// ingest, so the worker gets an immutable copy by value).
    la::GramStats target_stats;
    bool warm = false;
  };
  struct Result {
    bool promoted = false;
    double accuracy = 0.0;
    std::string reason;
    std::shared_ptr<ModelGeneration> generation;
  };

  /// Runs one build->validate->promote cycle; called on the worker thread
  /// (background) or inline from serve() (synchronous mode).
  [[nodiscard]] Result run_adaptation(const Job& job);
  void worker_main();
  /// Consumes a finished background result, transitioning the state.
  void poll_worker();
  void apply_result(const Result& result);
  void start_backoff();
  void handle_trigger();
  /// Transitions the loop state, journaling one "drift.state" event per
  /// edge (value = the new state's enum ordinal).
  void set_state(DriftState s);

  FsGanPipeline& pipeline_;
  DriftLoopOptions options_;
  DriftDetector detector_;
  AdaptationBuffer buffer_;
  DriftState state_ = DriftState::Stable;
  DriftLoopStats stats_;
  /// Geometric re-arm backoff across consecutive rejections; reset on a
  /// successful promotion.  Long-lived by design -- this is the caller the
  /// RetryPolicy::max_backoff_scale clamp exists for.
  std::optional<common::RetryController> rearm_;
  std::size_t consecutive_rejections_ = 0;
  std::size_t probation_left_ = 0;
  double quarantine_ewma_ = 0.0;
  double quarantine_ewma_pre_ = 0.0;
  bool baselined_ = false;
  /// Persistent snapshot target: re-used across triggers so repeated
  /// re-adaptation attempts gather the buffer without fresh allocations.
  data::Dataset snapshot_scratch_;

  // Background worker: serve() enqueues at most one job; the worker posts
  // at most one result.  Both hand off under mu_.
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool job_ready_ = false;
  bool result_ready_ = false;
  bool busy_ = false;
  Job job_;
  Result result_;
};

}  // namespace fsda::core
