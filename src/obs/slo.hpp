// fsda::obs -- SLO tracking over sliding latency windows (DESIGN.md §14).
//
// An SloTracker watches one latency stream against an objective of the
// form "<objective> of requests complete within <latency_target_ms>"
// (e.g. 99% under 25 ms) over a sliding window of fixed-duration epochs.
// Per epoch it keeps an HdrHistogram plus good/bad counts; the window
// answers two questions the serving daemon's admission control consumes
// (each ServeDaemon owns one tracker, serve/daemon.hpp):
//
//   window_quantile(objective)  the observed p99 (etc.) over the window,
//                               within the HDR relative-error bound;
//   error_budget_burn_rate()    (bad fraction) / (1 - objective): 1.0
//                               burns the budget exactly as fast as the
//                               SLO allows, >1 means the SLO will be
//                               violated if the window's behaviour holds.
//
// record() ALWAYS applies, like Gauge::set -- an SLO signal that goes
// blind when telemetry is off cannot gate admission.  It is meant for
// once-per-batch call rates: it takes a short mutex and one steady-clock
// read (epoch rotation is driven by that clock, so idle periods rotate
// lazily on the next record/query).  When gauge names are configured, the
// window p-objective and burn rate are published to the metrics registry
// on every rotation.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/hdr_histogram.hpp"

namespace fsda::obs {

class Gauge;

struct SloOptions {
  /// Latency bound the objective applies to.
  double latency_target_ms = 25.0;
  /// Required fraction of requests under the bound (0.99 -> "p99 SLO").
  double objective = 0.99;
  /// Wall-clock length of one window epoch.
  double epoch_seconds = 10.0;
  /// Epochs per sliding window (window = epoch_seconds * window_epochs).
  std::size_t window_epochs = 6;
  /// Layout of the per-epoch latency histograms.
  HdrOptions hdr;
  /// When non-empty, `<prefix>.p_objective_ms` and `<prefix>.burn_rate`
  /// gauges are updated on every epoch rotation.
  std::string gauge_prefix;
};

class SloTracker {
 public:
  explicit SloTracker(SloOptions options = {});

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Records one request latency (always applies; see file comment).
  void record(double latency_ms);

  /// Forces an epoch rotation (tests; production rotation is clock-driven).
  void rotate();

  /// Latency at quantile `q` over the sliding window (HDR bound applies).
  [[nodiscard]] double window_quantile(double q) const;
  /// Convenience: window_quantile(objective).
  [[nodiscard]] double window_p_objective() const;
  /// (bad fraction over window) / (1 - objective); 0 when the window is
  /// empty.  1.0 = burning the error budget exactly at the allowed rate.
  [[nodiscard]] double error_budget_burn_rate() const;
  /// True when the window's p-objective exceeds the latency target.
  [[nodiscard]] bool breaching() const;

  [[nodiscard]] std::uint64_t window_total() const;
  [[nodiscard]] std::uint64_t window_bad() const;
  [[nodiscard]] const SloOptions& options() const { return options_; }

 private:
  struct Epoch {
    std::unique_ptr<HdrHistogram> hist;
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };

  void rotate_locked();
  void advance_clock_locked();
  void publish_gauges_locked();

  SloOptions options_;
  mutable std::mutex mu_;
  std::vector<Epoch> epochs_;
  std::size_t current_ = 0;
  double epoch_started_s_ = 0.0;  // steady seconds (monotonic)
  Gauge* p_objective_gauge_ = nullptr;
  Gauge* burn_gauge_ = nullptr;
};

}  // namespace fsda::obs
