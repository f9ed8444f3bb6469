#include "core/drift_loop.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "la/view.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

// ---------------------------------------------------------------------------
// DriftDetector

DriftDetector::DriftDetector(DriftDetectorOptions options)
    : options_(options) {
  FSDA_CHECK_MSG(options_.window >= 1, "detector window must be >= 1");
  FSDA_CHECK_MSG(options_.min_window >= 1 &&
                     options_.min_window <= options_.window,
                 "min_window must be in [1, window]");
  FSDA_CHECK_MSG(options_.patience >= 1, "patience must be >= 1");
  FSDA_CHECK_MSG(options_.psi_clear <= options_.psi_trigger &&
                     options_.ks_clear <= options_.ks_trigger,
                 "clear thresholds must not exceed trigger thresholds");
}

void DriftDetector::fit(const la::Matrix& reference) {
  FSDA_CHECK_MSG(reference.rows() > 0 && reference.cols() > 0,
                 "detector reference must be non-empty");
  columns_.resize(reference.cols());
  for (std::size_t c = 0; c < columns_.size(); ++c) columns_[c] = c;
  monitor_.fit(la::ConstMatrixView(reference), columns_, options_.bins);
  window_.resize(options_.window, reference.cols());
  win_rows_ = 0;
  win_next_ = 0;
  latched_ = false;
  over_streak_ = 0;
  under_streak_ = 0;
  cooldown_left_ = 0;
  suppressed_ = 0;
}

bool DriftDetector::observe(const la::Matrix& batch) {
  FSDA_CHECK_MSG(monitor_.fitted(), "DriftDetector::observe before fit");
  FSDA_CHECK_MSG(batch.cols() == window_.cols(),
                 "detector batch has " << batch.cols() << " columns, expect "
                                       << window_.cols());
  // The window always ingests -- a suppressed detector must still track the
  // live distribution so rebaseline/rescore act on current data.
  const la::ConstMatrixView bv(batch);
  for (std::size_t r = 0; r < bv.rows(); ++r) {
    std::memcpy(la::MatrixView(window_).row_data(win_next_), bv.row_data(r),
                window_.cols() * sizeof(double));
    win_next_ = (win_next_ + 1) % options_.window;
    win_rows_ = std::min(win_rows_ + 1, options_.window);
  }
  if (suppressed_ > 0) {
    --suppressed_;
    return false;
  }
  if (win_rows_ < options_.min_window) return false;
  score_window();

  const bool over = last_drifted_ > 0;
  if (!latched_) {
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      over_streak_ = 0;
      return false;
    }
    over_streak_ = over ? over_streak_ + 1 : 0;
    if (over_streak_ >= options_.patience) {
      latched_ = true;
      over_streak_ = 0;
      under_streak_ = 0;
      FSDA_EVENT_INSTANT(fsda::obs::EventCategory::Drift, "drift.trigger",
                         last_psi_max_);
      return true;  // edge
    }
    return false;
  }
  // Latched: clear only after `patience` consecutive fully-under windows.
  const bool under = last_psi_max_ <= options_.psi_clear &&
                     last_ks_max_ <= options_.ks_clear;
  under_streak_ = under ? under_streak_ + 1 : 0;
  if (under_streak_ >= options_.patience) {
    latched_ = false;
    under_streak_ = 0;
    cooldown_left_ = options_.cooldown;
    FSDA_EVENT_INSTANT(fsda::obs::EventCategory::Drift, "drift.clear",
                       last_psi_max_);
  }
  return false;
}

void DriftDetector::score_window() {
  const la::ConstMatrixView win =
      la::ConstMatrixView(window_).row_block(0, win_rows_);
  const std::vector<double> psi = monitor_.psi(win);
  const std::vector<double> ks = monitor_.ks(win);
  last_psi_max_ = 0.0;
  last_ks_max_ = 0.0;
  last_drifted_ = 0;
  for (std::size_t i = 0; i < psi.size(); ++i) {
    last_psi_max_ = std::max(last_psi_max_, psi[i]);
    last_ks_max_ = std::max(last_ks_max_, ks[i]);
    if (psi[i] >= options_.psi_trigger || ks[i] >= options_.ks_trigger) {
      ++last_drifted_;
    }
  }
}

void DriftDetector::rebaseline_to_window() {
  FSDA_CHECK_MSG(win_rows_ > 0, "rebaseline with an empty window");
  const la::ConstMatrixView win =
      la::ConstMatrixView(window_).row_block(0, win_rows_);
  monitor_.fit(win, columns_, options_.bins);
  unlatch();
  // The fresh reference IS the window: give the stream time to move before
  // the detector may fire against it.
  cooldown_left_ = options_.cooldown;
}

void DriftDetector::unlatch() {
  latched_ = false;
  over_streak_ = 0;
  under_streak_ = 0;
}

// ---------------------------------------------------------------------------
// AdaptationBuffer

AdaptationBuffer::AdaptationBuffer(std::size_t capacity,
                                   std::size_t num_features,
                                   std::size_t num_classes)
    : capacity_(capacity), num_classes_(num_classes) {
  FSDA_CHECK_MSG(capacity >= 1, "adaptation buffer capacity must be >= 1");
  FSDA_CHECK_MSG(num_features >= 1, "adaptation buffer needs features");
  x_.resize(capacity, num_features);
  y_.assign(capacity, 0);
}

void AdaptationBuffer::enable_stats(const data::MinMaxScaler* scaler) {
  FSDA_CHECK_MSG(scaler != nullptr && scaler->is_fitted(),
                 "enable_stats needs a fitted scaler");
  FSDA_CHECK_MSG(rows_ == 0, "enable_stats on a non-empty buffer ("
                                 << rows_ << " rows)");
  scaler_ = scaler;
  xs_.resize(capacity_, x_.cols());
  row_raw_.resize(1, x_.cols());
  row_scaled_.resize(1, x_.cols());
  class_stats_.assign(num_classes_, la::GramStats(x_.cols()));
  class_counts_.assign(num_classes_, 0);
}

void AdaptationBuffer::ingest(const la::Matrix& x_raw,
                              const std::vector<std::int64_t>& labels) {
  FSDA_CHECK_MSG(labels.size() == x_raw.rows(),
                 "adaptation ingest: " << labels.size() << " labels for "
                                       << x_raw.rows() << " rows");
  FSDA_CHECK_MSG(x_raw.cols() == x_.cols(),
                 "adaptation ingest feature mismatch");
  const la::ConstMatrixView xv(x_raw);
  for (std::size_t r = 0; r < xv.rows(); ++r) {
    const double* row = xv.row_data(r);
    bool finite = true;
    for (std::size_t c = 0; c < x_.cols() && finite; ++c) {
      if (!std::isfinite(row[c])) finite = false;
    }
    if (!finite) continue;  // quarantined by serving; useless as a shot
    if (scaler_ != nullptr) {
      FSDA_CHECK_MSG(labels[r] >= 0 &&
                         static_cast<std::size_t>(labels[r]) < num_classes_,
                     "adaptation ingest label out of range: " << labels[r]);
      if (rows_ == capacity_) {
        // Ring eviction: rank-1 downdate the overwritten row's class.
        const auto old_cls = static_cast<std::size_t>(y_[next_]);
        class_stats_[old_cls].remove(
            {la::ConstMatrixView(xs_).row_data(next_), x_.cols()});
        --class_counts_[old_cls];
      }
      // Scale through the pipeline's own scaler (unclamped, un-imputed) so
      // the statistics live in exactly the representation the FS path's
      // transform would produce.
      std::memcpy(la::MatrixView(row_raw_).row_data(0), row,
                  x_.cols() * sizeof(double));
      scaler_->transform_into(row_raw_, row_scaled_);
      std::memcpy(la::MatrixView(xs_).row_data(next_),
                  la::ConstMatrixView(row_scaled_).row_data(0),
                  x_.cols() * sizeof(double));
      const auto cls = static_cast<std::size_t>(labels[r]);
      class_stats_[cls].add(
          {la::ConstMatrixView(xs_).row_data(next_), x_.cols()});
      ++class_counts_[cls];
    }
    std::memcpy(la::MatrixView(x_).row_data(next_), row,
                x_.cols() * sizeof(double));
    y_[next_] = labels[r];
    next_ = (next_ + 1) % capacity_;
    rows_ = std::min(rows_ + 1, capacity_);
  }
}

data::Dataset AdaptationBuffer::snapshot() const {
  data::Dataset d;
  snapshot_into(d);
  return d;
}

void AdaptationBuffer::snapshot_into(data::Dataset& out) const {
  out.num_classes = num_classes_;
  out.x.resize(rows_, x_.cols());  // reuses capacity: allocation-flat reuse
  out.y.resize(rows_);
  // Oldest first: when the ring has wrapped, the oldest row sits at next_.
  const std::size_t start = rows_ == capacity_ ? next_ : 0;
  const la::ConstMatrixView xv(x_);
  la::MatrixView dv(out.x);
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::size_t src = (start + i) % capacity_;
    std::memcpy(dv.row_data(i), xv.row_data(src), x_.cols() * sizeof(double));
    out.y[i] = y_[src];
  }
}

// ---------------------------------------------------------------------------
// DriftLoop

const char* to_string(DriftState s) {
  switch (s) {
    case DriftState::Stable: return "Stable";
    case DriftState::Triggered: return "Triggered";
    case DriftState::Adapting: return "Adapting";
    case DriftState::Validating: return "Validating";
    case DriftState::Probation: return "Probation";
    case DriftState::Backoff: return "Backoff";
  }
  return "?";
}

namespace {

struct LoopCounters {
  obs::Counter& triggers;
  obs::Counter& attempts;
  obs::Counter& promotions;
  obs::Counter& rollbacks;
};

LoopCounters& loop_counters() {
  auto& reg = obs::MetricsRegistry::global();
  static LoopCounters c{
      reg.counter("drift.triggers_total",
                  "streaming drift-detector latches (edge-triggered)"),
      reg.counter("readapt.attempts_total",
                  "re-adaptation attempts started by the drift loop"),
      reg.counter("readapt.promotions_total",
                  "validated candidate generations promoted to serving"),
      reg.counter("readapt.rollbacks_total",
                  "candidates rejected at validation or rolled back on "
                  "probation"),
  };
  return c;
}

}  // namespace

DriftLoop::DriftLoop(FsGanPipeline& pipeline, DriftLoopOptions options)
    : pipeline_(pipeline),
      options_(std::move(options)),
      detector_(options_.detector),
      buffer_(options_.buffer_capacity, pipeline.scaled_source().cols(),
              pipeline.num_classes()) {
  FSDA_CHECK_MSG(pipeline_.is_trained(), "DriftLoop around an untrained "
                                         "pipeline");
  FSDA_CHECK_MSG(pipeline_.options().validation_rows > 0,
                 "DriftLoop needs a validation holdout; set "
                 "PipelineOptions::validation_rows > 0");
  FSDA_CHECK_MSG(pipeline_.options().use_reconstruction,
                 "DriftLoop requires FS+GAN mode (FS mode cannot re-adapt "
                 "without classifier retraining)");
  FSDA_CHECK_MSG(options_.min_adaptation_samples >= 1 &&
                     options_.min_adaptation_samples <=
                         options_.buffer_capacity,
                 "min_adaptation_samples must be in [1, buffer_capacity]");
  detector_.fit(pipeline_.scaled_source());
  if (options_.warm_readapt) {
    // Incremental per-class sufficient statistics over the scaled buffer
    // rows, so a trigger can hand the worker an O(d²) correlation assembly
    // instead of a row rescan (DESIGN.md §16).
    buffer_.enable_stats(&pipeline_.scaler());
  }
  if (options_.background) {
    worker_ = std::thread([this] { worker_main(); });
  }
}

void DriftLoop::set_state(DriftState s) {
  if (state_ == s) return;
  state_ = s;
  FSDA_EVENT_INSTANT(fsda::obs::EventCategory::Drift, "drift.state",
                     static_cast<double>(s));
}

DriftLoop::~DriftLoop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void DriftLoop::serve(const la::Matrix& x_raw,
                      const std::vector<std::int64_t>& labels,
                      la::Matrix& proba) {
  ++stats_.batches;
  // 1. Consume any finished background adaptation BEFORE predicting, so a
  //    validated candidate starts serving with this batch.
  poll_worker();

  // 2. Serve through the active generation (never blocks on the worker).
  const BatchFacts facts = pipeline_.predict_proba_into(x_raw, proba);
  const double q_rate =
      x_raw.rows() > 0 ? static_cast<double>(facts.quarantined_rows) /
                             static_cast<double>(x_raw.rows())
                       : 0.0;
  quarantine_ewma_ = 0.8 * quarantine_ewma_ + 0.2 * q_rate;

  // 3. Probation: a quarantine-rate spike right after a promotion means the
  //    new generation mishandles the live stream -- roll it back.
  if (state_ == DriftState::Probation) {
    if (q_rate > quarantine_ewma_pre_ + options_.quarantine_spike) {
      if (pipeline_.registry().rollback()) {
        FSDA_EVENT_INSTANT(fsda::obs::EventCategory::Drift, "readapt.rollback",
                           q_rate);
        ++stats_.rollbacks;
        loop_counters().rollbacks.inc();
        stats_.last_reason = "post-promotion quarantine-rate spike";
        FSDA_LOG_WARN << "drift loop: probation rollback (quarantine rate "
                      << q_rate << " vs pre-promotion " << quarantine_ewma_pre_
                      << ")";
      }
      ++consecutive_rejections_;
      start_backoff();
    } else if (probation_left_ > 0 && --probation_left_ == 0) {
      // Probation passed: the promoted generation is trusted, so a
      // rollback from here on would be a regression.  Retire the depth-1
      // history eagerly -- a long-running daemon must not pin the stale
      // generation's reconstructor and session for the rest of its life.
      if (pipeline_.registry().retire_previous()) {
        FSDA_EVENT_INSTANT(fsda::obs::EventCategory::Drift, "readapt.retire",
                           static_cast<double>(pipeline_.registry().active_id()));
      }
      set_state(DriftState::Stable);
    }
  }

  // 4. Retain adaptation samples (labels may be delayed/absent).
  if (!labels.empty()) buffer_.ingest(x_raw, labels);

  // 5. One-time warmup rebaseline to the live window.
  if (options_.warmup_batches > 0 && !baselined_ &&
      stats_.batches >= options_.warmup_batches &&
      detector_.window_rows() > 0) {
    detector_.rebaseline_to_window();
    baselined_ = true;
  }

  // 6. Feed the detector the scaled, sanitized batch the models saw.
  const bool edge = detector_.observe(pipeline_.last_scaled_batch());
  if (state_ == DriftState::Backoff && detector_.suppressed() == 0) {
    set_state(DriftState::Stable);
  }
  if (edge) handle_trigger();
}

void DriftLoop::handle_trigger() {
  ++stats_.triggers;
  loop_counters().triggers.inc();
  FSDA_LOG_INFO << "drift loop: detector latched (psi_max "
                << detector_.last_psi_max() << ", ks_max "
                << detector_.last_ks_max() << ", "
                << detector_.last_drifted_features() << " feature(s))";
  if (state_ != DriftState::Stable) return;  // adaptation already in flight
  if (buffer_.size() < options_.min_adaptation_samples) {
    ++stats_.skipped_no_samples;
    stats_.last_reason = "trigger with too few buffered samples";
    detector_.unlatch();  // re-latch (and retry) once patience re-accrues
    return;
  }
  set_state(DriftState::Triggered);
  ++stats_.attempts;
  loop_counters().attempts.inc();
  // Gather into the persistent scratch (no job is in flight -- state was
  // Stable -- so the worker cannot be reading it).  The warm fast path
  // additionally assembles the label-shift-weighted target statistics HERE,
  // on the serving thread: the buffer's class stats keep mutating as later
  // batches ingest, so the worker must get an immutable copy.
  buffer_.snapshot_into(snapshot_scratch_);
  Job job;
  job.shots = &snapshot_scratch_;
  job.warm = options_.warm_readapt && consecutive_rejections_ == 0;
  if (job.warm && buffer_.stats_enabled()) {
    job.target_stats = pipeline_.weighted_target_stats(
        buffer_.class_stats(), buffer_.class_counts(), buffer_.size());
  }
  if (job.warm) ++stats_.warm_attempts;
  if (options_.background) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = std::move(job);
      job_ready_ = true;
      busy_ = true;
    }
    cv_.notify_all();
    set_state(DriftState::Adapting);
  } else {
    set_state(DriftState::Adapting);
    const Result r = run_adaptation(job);
    apply_result(r);
  }
}

DriftLoop::Result DriftLoop::run_adaptation(const Job& job) {
  Result r;
  // The warm context engages every fast-path layer at once; a cold job (the
  // attempt after any rejection) leaves the default-constructed context,
  // which reproduces the original cold build exactly.
  ReadaptContext ctx;
  ctx.warm = job.warm;
  if (job.target_stats.dim() > 0 && job.target_stats.weight() > 0.0) {
    ctx.target_stats = &job.target_stats;
  }
  CandidateOutcome built = [&] {
    FSDA_EVENT_SCOPE(fsda::obs::EventCategory::Drift, "readapt.build");
    return pipeline_.build_candidate_generation(
        *job.shots, options_.fs.value_or(pipeline_.options().fs), ctx);
  }();
  if (built.generation == nullptr) {
    r.reason = built.reason.empty() ? "candidate build failed" : built.reason;
    return r;
  }
  // Validation runs on whichever thread built the candidate, scoring it on
  // its own session and a fresh context, so it never touches serving state.
  const ValidationVerdict v = [&] {
    FSDA_EVENT_SCOPE(fsda::obs::EventCategory::Drift, "readapt.validate");
    return pipeline_.validate_generation(built.generation,
                                         options_.validation);
  }();
  r.accuracy = v.accuracy;
  if (!v.ok) {
    r.reason = v.reason;
    return r;
  }
  built.generation->validation_accuracy = v.accuracy;
  r.generation = std::move(built.generation);
  r.promoted = true;
  return r;
}

void DriftLoop::worker_main() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || job_ready_; });
      if (stop_) return;
      job = std::move(job_);
      job_ready_ = false;
    }
    Result r = run_adaptation(job);
    {
      std::lock_guard<std::mutex> lk(mu_);
      result_ = std::move(r);
      result_ready_ = true;
    }
    cv_.notify_all();
  }
}

void DriftLoop::poll_worker() {
  if (!options_.background) return;
  Result r;
  bool have = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (result_ready_) {
      r = std::move(result_);
      result_ready_ = false;
      busy_ = false;
      have = true;
    }
  }
  if (have) {
    set_state(DriftState::Validating);
    apply_result(r);
  }
}

void DriftLoop::apply_result(const Result& result) {
  stats_.last_candidate_accuracy = result.accuracy;
  if (result.promoted && result.generation != nullptr) {
    // All registry writes happen on the serving thread: publish here, and
    // rollback (if probation trips) also here -- the worker only builds.
    const std::uint64_t id = pipeline_.promote_generation(result.generation);
    FSDA_EVENT_INSTANT(fsda::obs::EventCategory::Drift, "readapt.promote",
                       result.accuracy);
    ++stats_.promotions;
    loop_counters().promotions.inc();
    stats_.last_reason.clear();
    consecutive_rejections_ = 0;
    rearm_.reset();
    // The stream is still drifted relative to the ORIGINAL source -- that
    // is the regime the new generation was built for.  Rebaseline so the
    // detector measures future movement, not the already-mitigated shift.
    quarantine_ewma_pre_ = quarantine_ewma_;
    if (detector_.window_rows() > 0) detector_.rebaseline_to_window();
    probation_left_ = options_.probation_batches;
    set_state(probation_left_ > 0 ? DriftState::Probation
                                  : DriftState::Stable);
    FSDA_LOG_INFO << "drift loop: promoted generation " << id
                  << " (holdout accuracy " << result.accuracy << ")";
  } else {
    FSDA_EVENT_INSTANT(fsda::obs::EventCategory::Drift, "readapt.reject",
                       result.accuracy);
    ++stats_.rejections;
    ++stats_.rollbacks;  // logical rollback: the active generation stands
    loop_counters().rollbacks.inc();
    stats_.last_reason = result.reason;
    ++consecutive_rejections_;
    FSDA_LOG_WARN << "drift loop: candidate rejected (" << result.reason
                  << ")";
    start_backoff();
  }
}

void DriftLoop::start_backoff() {
  if (!rearm_.has_value()) rearm_.emplace(options_.rearm);
  const double scale = rearm_->backoff_scale();
  (void)rearm_->allow_retry();  // advance the geometric schedule
  const auto batches = std::max<std::size_t>(
      static_cast<std::size_t>(
          static_cast<double>(options_.base_backoff_batches) * scale),
      1);
  detector_.suppress(batches);
  detector_.unlatch();
  set_state(DriftState::Backoff);
  FSDA_LOG_INFO << "drift loop: re-arm backoff for " << batches
                << " batch(es) after " << consecutive_rejections_
                << " consecutive rejection(s)";
}

void DriftLoop::drain() {
  if (!options_.background) return;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return !busy_ || result_ready_; });
  }
  poll_worker();
}

}  // namespace fsda::core
