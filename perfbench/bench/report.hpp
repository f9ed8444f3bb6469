// Measurement bookkeeping shared by the workloads: the distribution
// summary, the metric report with its failure accounting, and the process
// counters (getrusage) every run stamps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median plus the highest of p99.9 / p99 / p90 / p50 that still has at
/// least ten samples beyond it (nearest-rank), with the sample count.  A
/// handful of samples therefore yields a median and no tail, never a
/// made-up p99.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  /// Percentile of `tail` in per-mille (990 = p99); 0 when no percentile
  /// has ten samples beyond it.
  int tail_permille = 0;
  double tail = 0.0;

  /// Value at `permille`, or NaN when that percentile lacks ten samples
  /// beyond it -- a NaN metric fails the run's checks, so an unsupported
  /// tail can never be reported.
  [[nodiscard]] double at(int permille) const;
  /// "p99" / "p99.9" / ... for tail_permille; "none" when there is none.
  [[nodiscard]] std::string tail_name() const;

  std::vector<double> sorted;  ///< the samples, ascending
};

[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Nearest-rank value at `permille` of ascending `sorted` (non-empty).
[[nodiscard]] double value_at_permille(const std::vector<double>& sorted,
                                       int permille);

/// Process counters from getrusage(RUSAGE_SELF).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctxsw_vol = 0.0;
  double ctxsw_invol = 0.0;
  double max_rss_mb = 0.0;
};
[[nodiscard]] Usage usage_now();

/// Every number a run produces, by name, plus its failure accounting.
/// Metrics are either end-to-end ("e2e", what a user of the system sees)
/// or per-layer ("layer", one module's share).  print() writes one line per
/// metric, then a final JSON line the launcher (run.py) filters down to the
/// metrics BENCHMARK.json declares.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// Environment / configuration stamp, printed as "env key value".
  void env(const std::string& key, const std::string& value);

  /// One operation attempted; `ok == false` counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A correctness check failed: the run reports correct=false and exits
  /// non-zero.  Every failed check is printed.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return correct_; }

  void print() const;

 private:
  struct Metric {
    std::string kind, name, unit;
    double value = 0.0;
  };
  void add(const char* kind, const std::string& name, double value,
           const std::string& unit);

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> env_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench
