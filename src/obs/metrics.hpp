// fsda::obs -- process-wide metrics registry: counters, gauges, and HDR
// histograms (hdr_histogram.hpp), one primitive per concept: totals here,
// distributions in HDR, *when* in the flight-recorder journal.
//
// Hot-path increments must be safe inside ThreadPool workers and must not
// serialize them: Counter and HdrHistogram spread their cells across
// cache-line-aligned shards updated with relaxed atomics, so an increment
// is a single wait-free fetch_add on the calling thread's shard.  Reads
// (value(), the exporters) sum the shards; they are monotonic but not a
// linearizable snapshot, which is all a telemetry scrape needs.
//
// Naming scheme (DESIGN.md §9): `<subsystem>.<metric>[_total|_seconds|_ms]`,
// e.g. `fs.ci_tests_total`, `cgan.epochs_total`, `predict.latency_ms`.
// A metric may carry one Prometheus-style label suffix in its name, e.g.
// `drift.psi{feature="17"}`; the registry treats the full string as the
// key and the text exposition splits it back into name + label.
//
// The global enabled flag gates Counter::inc and HdrHistogram::record (the
// hot paths).  Gauge::set always applies: gauges are cold-path stage
// summaries that double as accessors (e.g. reconstructor fit seconds), so
// they must stay truthful even with telemetry off.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/hdr_histogram.hpp"

namespace fsda::obs {

/// True when counter/HDR recording is active (default: off --
/// exporters, the CLI telemetry flags, and FSDA_METRICS_OUT turn it on).
[[nodiscard]] bool telemetry_enabled() noexcept;

/// Toggles counter/HDR recording process-wide.
void set_telemetry_enabled(bool on) noexcept;

// detail::g_enabled (the process-wide gate), detail::kShards, and
// detail::shard_index() are declared in hdr_histogram.hpp (included above)
// and defined in metrics.cpp.

/// Monotonic counter with sharded cells; inc() is wait-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    cells_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, detail::kShards> cells_{};
};

/// Last-write-wins instantaneous value.  set()/add() apply regardless of
/// the enabled flag (see file comment).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Name -> metric map with stable handles: counter()/gauge()/hdr()
/// find-or-create under a mutex and return a reference that stays valid
/// for the registry's lifetime, so call sites resolve once and increment
/// lock-free afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (never destroyed, so handles cached in
  /// long-lived threads stay valid through shutdown).
  static MetricsRegistry& global();

  Counter& counter(const std::string& name, const std::string& help = {});
  Gauge& gauge(const std::string& name, const std::string& help = {});
  /// Log-linear quantile histogram (p50/p90/p99/p999 within the HDR
  /// relative-error bound).  `options` are consulted only on first
  /// registration.
  HdrHistogram& hdr(const std::string& name, HdrOptions options = {},
                    const std::string& help = {});

  /// True when a metric of any type with this exact name exists.
  [[nodiscard]] bool has(const std::string& name) const;
  /// Gauge value by name; `fallback` when absent.
  [[nodiscard]] double gauge_value(const std::string& name,
                                   double fallback = 0.0) const;

  /// Prometheus-style text exposition (names sanitized, `fsda_` prefix).
  [[nodiscard]] std::string expose_text() const;
  /// One JSON object with "counters", "gauges", and "hdr" sections (hdr
  /// entries carry count/sum/min/max/p50/p90/p99/p999).
  [[nodiscard]] std::string snapshot_json() const;

  /// Zeroes every registered metric (tests); registrations are kept.
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HdrHistogram>> hdrs_;
  std::map<std::string, std::string> help_;
};

/// Escapes a Prometheus label VALUE: backslash, double quote, and newline
/// become `\\`, `\"`, and `\n` per the exposition format.
[[nodiscard]] std::string escape_label_value(const std::string& value);

/// Builds a labeled metric key, escaping the label value:
/// metric_with_label("drift.psi", "feature", "17") ->
/// `drift.psi{feature="17"}`.  Use this instead of concatenating label
/// blocks by hand, so values containing `\`, `"`, or newlines stay valid.
[[nodiscard]] std::string metric_with_label(const std::string& base,
                                            const std::string& key,
                                            const std::string& value);

}  // namespace fsda::obs
