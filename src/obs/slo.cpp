#include "obs/slo.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace fsda::obs {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SloTracker::SloTracker(SloOptions options) : options_(std::move(options)) {
  FSDA_CHECK_MSG(options_.latency_target_ms > 0.0,
                 "SLO latency target must be positive");
  FSDA_CHECK_MSG(options_.objective > 0.0 && options_.objective < 1.0,
                 "SLO objective must be in (0, 1)");
  FSDA_CHECK_MSG(options_.window_epochs >= 1, "SLO window needs >= 1 epoch");
  FSDA_CHECK_MSG(options_.epoch_seconds > 0.0,
                 "SLO epoch duration must be positive");
  epochs_.resize(options_.window_epochs);
  for (Epoch& e : epochs_) {
    e.hist = std::make_unique<HdrHistogram>(options_.hdr);
  }
  epoch_started_s_ = steady_seconds();
  if (!options_.gauge_prefix.empty()) {
    auto& registry = MetricsRegistry::global();
    p_objective_gauge_ = &registry.gauge(
        options_.gauge_prefix + ".p_objective_ms",
        "window latency at the SLO objective quantile (ms)");
    burn_gauge_ = &registry.gauge(
        options_.gauge_prefix + ".burn_rate",
        "error-budget burn rate over the SLO window (1.0 = at budget)");
  }
}

void SloTracker::advance_clock_locked() {
  const double now = steady_seconds();
  // Rotate once per elapsed epoch, but never more than a full window --
  // after a long idle gap the whole window is stale either way.
  std::size_t rotations = 0;
  while (now - epoch_started_s_ >= options_.epoch_seconds &&
         rotations < epochs_.size()) {
    rotate_locked();
    epoch_started_s_ += options_.epoch_seconds;
    ++rotations;
  }
  if (now - epoch_started_s_ >= options_.epoch_seconds) {
    epoch_started_s_ = now;  // snap after the full-window catch-up
  }
}

void SloTracker::rotate_locked() {
  current_ = (current_ + 1) % epochs_.size();
  Epoch& e = epochs_[current_];
  e.hist->reset();
  e.total = 0;
  e.bad = 0;
  publish_gauges_locked();
}

void SloTracker::publish_gauges_locked() {
  if (p_objective_gauge_ == nullptr) return;
  HdrHistogram merged(options_.hdr);
  std::uint64_t total = 0, bad = 0;
  for (const Epoch& e : epochs_) {
    merged.merge_from(*e.hist);
    total += e.total;
    bad += e.bad;
  }
  p_objective_gauge_->set(merged.value_at_quantile(options_.objective));
  const double allowed = 1.0 - options_.objective;
  burn_gauge_->set(total == 0 ? 0.0
                              : (static_cast<double>(bad) /
                                 static_cast<double>(total)) /
                                    allowed);
}

void SloTracker::record(double latency_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  advance_clock_locked();
  Epoch& e = epochs_[current_];
  e.hist->record_always(latency_ms);
  ++e.total;
  if (!(latency_ms <= options_.latency_target_ms)) ++e.bad;
}

void SloTracker::rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  rotate_locked();
  epoch_started_s_ = steady_seconds();
}

double SloTracker::window_quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  HdrHistogram merged(options_.hdr);
  for (const Epoch& e : epochs_) merged.merge_from(*e.hist);
  return merged.value_at_quantile(q);
}

double SloTracker::window_p_objective() const {
  return window_quantile(options_.objective);
}

double SloTracker::error_budget_burn_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0, bad = 0;
  for (const Epoch& e : epochs_) {
    total += e.total;
    bad += e.bad;
  }
  if (total == 0) return 0.0;
  return (static_cast<double>(bad) / static_cast<double>(total)) /
         (1.0 - options_.objective);
}

bool SloTracker::breaching() const {
  return window_p_objective() > options_.latency_target_ms;
}

std::uint64_t SloTracker::window_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Epoch& e : epochs_) total += e.total;
  return total;
}

std::uint64_t SloTracker::window_bad() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t bad = 0;
  for (const Epoch& e : epochs_) bad += e.bad;
  return bad;
}

}  // namespace fsda::obs
