#include "core/health.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

namespace {

/// Scans one contiguous span for non-finite values; returns the count, or
/// stops at the first hit when `stop_early` is set (count is then 0 or 1).
std::size_t scan_span(std::span<const double> values, bool stop_early) {
  std::size_t bad = 0;
  // Blocked scan: sum of finiteness over a small block lets the compiler
  // vectorize std::isfinite; the early-exit check runs once per block.
  constexpr std::size_t kBlock = 64;
  std::size_t i = 0;
  for (; i + kBlock <= values.size(); i += kBlock) {
    std::size_t block_bad = 0;
    for (std::size_t j = 0; j < kBlock; ++j) {
      block_bad += std::isfinite(values[i + j]) ? 0 : 1;
    }
    bad += block_bad;
    if (stop_early && bad > 0) return bad;
  }
  for (; i < values.size(); ++i) {
    bad += std::isfinite(values[i]) ? 0 : 1;
    if (stop_early && bad > 0) return bad;
  }
  return bad;
}

}  // namespace

bool all_finite(la::ConstMatrixView m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (scan_span(m.row(r), /*stop_early=*/true) > 0) return false;
  }
  return true;
}

std::size_t count_nonfinite(la::ConstMatrixView m) {
  std::size_t bad = 0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    bad += scan_span(m.row(r), /*stop_early=*/false);
  }
  return bad;
}

std::vector<std::size_t> nonfinite_rows(la::ConstMatrixView m) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (scan_span(m.row(r), /*stop_early=*/true) > 0) rows.push_back(r);
  }
  return rows;
}

// ---------------------------------------------------------------------------

DivergenceMonitor::DivergenceMonitor(DivergenceMonitorOptions options)
    : options_(options), best_(std::numeric_limits<double>::max()) {
  FSDA_CHECK_MSG(options_.explosion_factor > 1.0,
                 "explosion factor must exceed 1");
  FSDA_CHECK_MSG(options_.patience >= 1, "patience must be >= 1");
}

bool DivergenceMonitor::observe(double value) {
  if (diverged_) return true;
  if (!std::isfinite(value)) {
    diverged_ = true;
    return true;
  }
  if (!seen_any_) {
    seen_any_ = true;
    best_ = value;
    return false;
  }
  best_ = std::min(best_, value);
  // |best| floor keeps near-zero best losses from flagging ordinary noise.
  const double threshold =
      options_.explosion_factor * std::max(std::abs(best_), 1e-6);
  if (value > threshold) {
    if (++exploding_streak_ >= options_.patience) diverged_ = true;
  } else {
    exploding_streak_ = 0;
  }
  return diverged_;
}

void DivergenceMonitor::reset() {
  best_ = std::numeric_limits<double>::max();
  exploding_streak_ = 0;
  diverged_ = false;
  seen_any_ = false;
}

// ---------------------------------------------------------------------------

std::vector<la::Matrix> capture_parameters(
    const std::vector<nn::Parameter*>& params) {
  std::vector<la::Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const nn::Parameter* p : params) snapshot.push_back(p->value);
  return snapshot;
}

void restore_parameters(const std::vector<nn::Parameter*>& params,
                        const std::vector<la::Matrix>& snapshot) {
  FSDA_CHECK_MSG(params.size() == snapshot.size(),
                 "snapshot size mismatch: " << snapshot.size() << " vs "
                                            << params.size() << " parameters");
  for (std::size_t i = 0; i < params.size(); ++i) {
    FSDA_CHECK(params[i]->value.rows() == snapshot[i].rows() &&
               params[i]->value.cols() == snapshot[i].cols());
    params[i]->value = snapshot[i];
    params[i]->bump_version();
    params[i]->zero_grad();
  }
}

bool parameters_finite(const std::vector<nn::Parameter*>& params) {
  for (const nn::Parameter* p : params) {
    if (!all_finite(p->value)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------

TrainingSentinel::TrainingSentinel(std::vector<nn::Parameter*> params,
                                   common::RetryPolicy retry,
                                   DivergenceMonitorOptions monitor_options,
                                   std::size_t snapshot_every)
    : params_(std::move(params)),
      retry_(retry),
      monitor_(monitor_options),
      snapshot_every_(std::max<std::size_t>(snapshot_every, 1)),
      snapshot_(capture_parameters(params_)) {}

bool TrainingSentinel::observe_epoch(std::size_t epoch, double loss) {
  health_.final_loss = loss;
  if (monitor_.observe(loss)) {
    health_.diverged = true;
    health_.healthy = false;
    restore_parameters(params_, snapshot_);
    ++health_.rollbacks;
    obs::MetricsRegistry::global()
        .counter("train.rollbacks_total",
                 "parameter rollbacks after a divergent epoch")
        .inc();
    return true;
  }
  // Healthy epoch: refresh the rollback target on snapshot boundaries, but
  // only when the parameters themselves are clean (a finite loss can lag an
  // already-poisoned weight matrix by a step).  The copy goes into the
  // snapshot's own matrices (same shapes since construction), so a snapshot
  // epoch allocates nothing.
  if ((epoch + 1) % snapshot_every_ == 0 && parameters_finite(params_)) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      la::copy_into(params_[i]->value, snapshot_[i]);
    }
  }
  return false;
}

bool TrainingSentinel::retry_after_divergence() {
  if (!health_.diverged || health_.healthy) return false;
  if (!retry_.allow_retry()) return false;
  ++health_.retries;
  obs::MetricsRegistry::global()
      .counter("train.retries_total",
               "training attempts restarted after divergence")
      .inc();
  health_.healthy = true;  // provisional; next divergence clears it again
  monitor_.reset();
  return true;
}

// ---------------------------------------------------------------------------

void HealthReport::note_stage(std::string stage, bool ok, std::string note) {
  if (!ok) degraded = true;
  stages.push_back({std::move(stage), ok, std::move(note)});
}

std::string HealthReport::to_string() const {
  std::ostringstream os;
  os << "HealthReport{degraded=" << (degraded ? "yes" : "no")
     << " fallback_reconstructor=" << (fallback_reconstructor ? "yes" : "no")
     << " fs_truncated=" << (fs_truncated ? "yes" : "no")
     << " retries=" << reconstructor_retries
     << " rollbacks=" << reconstructor_rollbacks
     << " quarantined_rows=" << quarantined_rows
     << " rejected_rows=" << rejected_rows
     << " clamped_cells=" << clamped_cells;
  for (const StageHealth& s : stages) {
    os << "\n  [" << (s.ok ? "ok" : "DEGRADED") << "] " << s.stage;
    if (!s.note.empty()) os << ": " << s.note;
  }
  os << "}";
  return os.str();
}

std::string HealthReport::to_json() const {
  std::ostringstream os;
  os << "{\"degraded\":" << (degraded ? "true" : "false")
     << ",\"fallback_reconstructor\":"
     << (fallback_reconstructor ? "true" : "false")
     << ",\"fs_truncated\":" << (fs_truncated ? "true" : "false")
     << ",\"reconstructor_retries\":" << reconstructor_retries
     << ",\"reconstructor_rollbacks\":" << reconstructor_rollbacks
     << ",\"quarantined_rows\":" << quarantined_rows
     << ",\"rejected_rows\":" << rejected_rows
     << ",\"clamped_cells\":" << clamped_cells << ",\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageHealth& s = stages[i];
    if (i > 0) os << ",";
    os << "{\"stage\":" << obs::json_string(s.stage)
       << ",\"ok\":" << (s.ok ? "true" : "false")
       << ",\"note\":" << obs::json_string(s.note) << "}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------

void MeanImputeReconstructor::fit(const la::Matrix& x_inv,
                                  const la::Matrix& x_var,
                                  const std::vector<std::int64_t>& labels,
                                  std::size_t num_classes) {
  const std::size_t n = x_inv.rows();
  FSDA_CHECK(x_var.rows() == n && labels.size() == n);
  FSDA_CHECK_MSG(n > 0, "fit on empty data");
  FSDA_CHECK_MSG(num_classes >= 1, "need at least one class");
  FSDA_CHECK_MSG(all_finite(x_inv) && all_finite(x_var),
                 "fallback reconstructor fit on non-finite source data");

  inv_means_ = la::Matrix(num_classes, x_inv.cols(), 0.0);
  var_means_ = la::Matrix(num_classes, x_var.cols(), 0.0);
  class_present_.assign(num_classes, 0);
  std::vector<double> counts(num_classes, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto c = static_cast<std::size_t>(labels[r]);
    FSDA_CHECK(labels[r] >= 0 && c < num_classes);
    counts[c] += 1.0;
    for (std::size_t f = 0; f < x_inv.cols(); ++f) {
      inv_means_(c, f) += x_inv(r, f);
    }
    for (std::size_t f = 0; f < x_var.cols(); ++f) {
      var_means_(c, f) += x_var(r, f);
    }
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (counts[c] == 0.0) continue;
    class_present_[c] = 1;
    for (std::size_t f = 0; f < x_inv.cols(); ++f) inv_means_(c, f) /= counts[c];
    for (std::size_t f = 0; f < x_var.cols(); ++f) var_means_(c, f) /= counts[c];
  }
  fitted_ = true;
}

la::Matrix MeanImputeReconstructor::reconstruct(la::ConstMatrixView x_inv) {
  la::Matrix out = la::Matrix::uninit(x_inv.rows(), var_means_.cols());
  impute_rows(x_inv, out);
  return out;
}

void MeanImputeReconstructor::impute_rows(la::ConstMatrixView x_inv,
                                          la::MatrixView out) const {
  FSDA_CHECK_MSG(fitted_, "reconstruct before fit");
  FSDA_CHECK(x_inv.cols() == inv_means_.cols());
  FSDA_CHECK(out.rows() == x_inv.rows() && out.cols() == var_means_.cols());
  for (std::size_t r = 0; r < x_inv.rows(); ++r) {
    // Nearest class centroid in invariant space; non-finite inputs are
    // skipped in the distance so partially corrupt rows still resolve.
    const double* in = x_inv.row_data(r);
    std::size_t best_class = 0;
    double best_dist = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < inv_means_.rows(); ++c) {
      if (!class_present_[c]) continue;
      double dist = 0.0;
      for (std::size_t f = 0; f < x_inv.cols(); ++f) {
        const double v = in[f];
        if (!std::isfinite(v)) continue;
        const double d = v - inv_means_(c, f);
        dist += d * d;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best_class = c;
      }
    }
    double* dst = out.row_data(r);
    for (std::size_t f = 0; f < var_means_.cols(); ++f) {
      dst[f] = var_means_(best_class, f);
    }
  }
}

}  // namespace fsda::core
