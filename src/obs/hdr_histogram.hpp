// fsda::obs -- HDR-style log-linear latency histograms (DESIGN.md §14).
//
// The registry's one distribution type.  Serving and training hot paths
// need "what is p99.9" with a *guaranteed* error bound, mergeable across
// shards and time windows.  An HdrHistogram covers
// [min_value, max_value] with log-linear buckets: each power-of-two range
// is split into 2^sub_bucket_bits equal-width sub-buckets, so any recorded
// value lands in a bucket whose width is at most value / 2^sub_bucket_bits
// and a quantile query answering with the bucket midpoint is within
//
//   relative error <= 1 / 2^(sub_bucket_bits + 1)
//
// of the exact order statistic (1.56% at the default 5 bits; tested
// against a sorted-sample oracle in obs_journal_test.cpp).  Values outside
// [min_value, max_value] are clamped into the edge buckets; the exact
// observed min/max are tracked separately, an edge bucket holding
// out-of-range values answers with that extreme, and every quantile is
// clamped into [min(), max()].  So a distribution of mostly zeros
// (separating-set sizes) reports p50 = 0, not the bottom bucket's midpoint.
//
// record() is wait-free -- one relaxed fetch_add on the bucket plus one on
// a sharded sum cell -- and gated by the same process-wide telemetry flag
// as Counter, so counts are EXACT under concurrency and the disabled cost
// is one relaxed load.  Reads scan the bucket array; they
// are monotonic, not linearizable, which is all a quantile query needs.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fsda::obs {

namespace detail {
// Shared with metrics.hpp (defined in metrics.cpp): the process-wide
// telemetry gate and the per-thread shard index.
extern std::atomic<bool> g_enabled;
inline constexpr std::size_t kShards = 16;
[[nodiscard]] std::size_t shard_index() noexcept;
}  // namespace detail

struct HdrOptions {
  /// Smallest distinguishable value (values below clamp into bucket 0).
  double min_value = 1e-3;
  /// Largest trackable value (values above clamp into the top bucket).
  double max_value = 1e7;
  /// Each power-of-two range is split into 2^sub_bucket_bits sub-buckets;
  /// 5 -> 32 sub-buckets -> quantiles within 1/64 ~ 1.6% relative error.
  unsigned sub_bucket_bits = 5;
};

class HdrHistogram {
 public:
  explicit HdrHistogram(HdrOptions options = {});

  HdrHistogram(const HdrHistogram&) = delete;
  HdrHistogram& operator=(const HdrHistogram&) = delete;
  HdrHistogram(HdrHistogram&&) = default;
  HdrHistogram& operator=(HdrHistogram&&) = default;

  /// Records one value; no-op when telemetry is disabled.  Wait-free.
  void record(double v) noexcept {
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    record_always(v);
  }

  /// Records regardless of the telemetry gate (for always-on consumers
  /// like the SLO tracker, which must stay truthful like gauges do).
  void record_always(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  /// Exact smallest/largest recorded values (0 when empty).
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

  /// The value at quantile `q` in [0, 1]: midpoint of the bucket holding
  /// the ceil(q * count)-th smallest recorded value, clamped into
  /// [min(), max()]; min() or max() itself when that bucket is the edge
  /// bucket holding values below min_value or above max_value.  0 when
  /// empty.
  [[nodiscard]] double value_at_quantile(double q) const noexcept;

  /// Documented bound: |value_at_quantile(q) - exact| <= bound * exact for
  /// recorded values inside [min_value, max_value].
  [[nodiscard]] double relative_error_bound() const noexcept {
    return 1.0 / static_cast<double>(2 * sub_count_);
  }

  /// Adds another histogram's counts into this one.  Requires identical
  /// options.  Safe against concurrent record() on either side (totals
  /// remain exact; the merge itself is not atomic as a whole).
  void merge_from(const HdrHistogram& other) noexcept;

  void reset() noexcept;

  struct Bucket {
    double lower = 0.0;
    double upper = 0.0;
    std::uint64_t count = 0;
  };
  /// Non-empty buckets, ascending (exporters, tests).
  [[nodiscard]] std::vector<Bucket> nonzero_buckets() const;

  [[nodiscard]] const HdrOptions& options() const noexcept {
    return options_; }
  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return num_buckets_; }

 private:
  [[nodiscard]] std::size_t index_for(double v) const noexcept;
  [[nodiscard]] double bucket_lower(std::size_t idx) const noexcept;
  [[nodiscard]] double bucket_upper(std::size_t idx) const noexcept;

  HdrOptions options_;
  std::size_t sub_count_ = 0;    // 2^sub_bucket_bits
  std::size_t num_exponents_ = 0;
  std::size_t num_buckets_ = 0;
  double max_ratio_ = 0.0;       // max_value / min_value
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;

  struct alignas(64) SumCell {
    std::atomic<double> sum{0.0};
  };
  std::unique_ptr<std::array<SumCell, detail::kShards>> sums_;
  std::unique_ptr<std::atomic<double>> observed_min_;
  std::unique_ptr<std::atomic<double>> observed_max_;
};

/// Sliding-window aggregation: a ring of epoch histograms; record() lands
/// in the current epoch, rotate() retires the oldest, merged() folds the
/// whole window into one queryable histogram.  Records racing a rotate may
/// land in the adjacent epoch -- harmless for windowed quantiles.
class WindowedHdr {
 public:
  WindowedHdr(std::size_t epochs, HdrOptions options = {});

  void record(double v) noexcept {
    epochs_[current_.load(std::memory_order_relaxed)]->record(v);
  }
  void record_always(double v) noexcept {
    epochs_[current_.load(std::memory_order_relaxed)]->record_always(v);
  }

  /// Advances the window by one epoch, clearing the slot it moves into.
  void rotate() noexcept;

  /// Merge of every epoch still in the window.
  [[nodiscard]] HdrHistogram merged() const;

  [[nodiscard]] std::size_t epochs() const noexcept { return epochs_.size(); }
  [[nodiscard]] const HdrOptions& options() const noexcept {
    return options_; }

 private:
  HdrOptions options_;
  std::vector<std::unique_ptr<HdrHistogram>> epochs_;
  std::atomic<std::size_t> current_{0};
};

}  // namespace fsda::obs
