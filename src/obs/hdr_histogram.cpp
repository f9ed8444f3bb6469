#include "obs/hdr_histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace fsda::obs {

HdrHistogram::HdrHistogram(HdrOptions options) : options_(options) {
  FSDA_CHECK_MSG(options_.min_value > 0.0 &&
                     options_.max_value > options_.min_value,
                 "HdrHistogram needs 0 < min_value < max_value");
  FSDA_CHECK_MSG(options_.sub_bucket_bits >= 1 &&
                     options_.sub_bucket_bits <= 12,
                 "sub_bucket_bits must be in [1, 12]");
  sub_count_ = std::size_t{1} << options_.sub_bucket_bits;
  max_ratio_ = options_.max_value / options_.min_value;
  num_exponents_ =
      static_cast<std::size_t>(std::floor(std::log2(max_ratio_))) + 1;
  num_buckets_ = num_exponents_ * sub_count_;
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_buckets_);
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sums_ = std::make_unique<std::array<SumCell, detail::kShards>>();
  observed_min_ = std::make_unique<std::atomic<double>>(
      std::numeric_limits<double>::infinity());
  observed_max_ = std::make_unique<std::atomic<double>>(
      -std::numeric_limits<double>::infinity());
}

std::size_t HdrHistogram::index_for(double v) const noexcept {
  if (!std::isfinite(v) || v < options_.min_value) return 0;
  double x = v / options_.min_value;
  if (x > max_ratio_) x = max_ratio_;
  int bin_exp = 0;
  (void)std::frexp(x, &bin_exp);  // x = frac * 2^bin_exp, frac in [0.5, 1)
  const int exp2 = bin_exp - 1;   // floor(log2(x)), x >= 1 so exp2 >= 0
  const double base = std::ldexp(1.0, exp2);
  auto sub = static_cast<std::size_t>((x / base - 1.0) *
                                      static_cast<double>(sub_count_));
  if (sub >= sub_count_) sub = sub_count_ - 1;
  std::size_t idx = static_cast<std::size_t>(exp2) * sub_count_ + sub;
  if (idx >= num_buckets_) idx = num_buckets_ - 1;
  return idx;
}

double HdrHistogram::bucket_lower(std::size_t idx) const noexcept {
  const std::size_t exp2 = idx / sub_count_;
  const std::size_t sub = idx % sub_count_;
  const double base = std::ldexp(1.0, static_cast<int>(exp2));
  return options_.min_value * base *
         (1.0 + static_cast<double>(sub) / static_cast<double>(sub_count_));
}

double HdrHistogram::bucket_upper(std::size_t idx) const noexcept {
  const std::size_t exp2 = idx / sub_count_;
  const std::size_t sub = idx % sub_count_;
  const double base = std::ldexp(1.0, static_cast<int>(exp2));
  return options_.min_value * base *
         (1.0 +
          static_cast<double>(sub + 1) / static_cast<double>(sub_count_));
}

void HdrHistogram::record_always(double v) noexcept {
  buckets_[index_for(v)].fetch_add(1, std::memory_order_relaxed);
  (*sums_)[detail::shard_index()].sum.fetch_add(std::isfinite(v) ? v : 0.0,
                                                std::memory_order_relaxed);
  if (std::isfinite(v)) {
    double seen = observed_min_->load(std::memory_order_relaxed);
    while (v < seen && !observed_min_->compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
    seen = observed_max_->load(std::memory_order_relaxed);
    while (v > seen && !observed_max_->compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
}

std::uint64_t HdrHistogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double HdrHistogram::sum() const noexcept {
  double total = 0.0;
  for (const SumCell& c : *sums_) {
    total += c.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double HdrHistogram::min() const noexcept {
  const double v = observed_min_->load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double HdrHistogram::max() const noexcept {
  const double v = observed_max_->load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double HdrHistogram::value_at_quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(total))));
  std::size_t i = 0;
  for (std::uint64_t cumulative = 0; i + 1 < num_buckets_; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target) break;
  }
  // Values outside [min_value, max_value] share an edge bucket whose
  // midpoint says nothing about them; the exact extreme does.  Otherwise
  // the extremes bound every order statistic, so clamping into them only
  // moves the midpoint toward the true value.  (min/max, not std::clamp: a
  // racing first record may briefly publish min > max.)
  const double lo = min();
  const double hi = max();
  if (lo < options_.min_value && i == index_for(lo)) return lo;
  if (hi > options_.max_value && i == index_for(hi)) return hi;
  const double mid = 0.5 * (bucket_lower(i) + bucket_upper(i));
  return std::min(std::max(mid, lo), hi);
}

void HdrHistogram::merge_from(const HdrHistogram& other) noexcept {
  if (other.num_buckets_ != num_buckets_ || other.sub_count_ != sub_count_ ||
      other.options_.min_value != options_.min_value) {
    return;  // incompatible layouts never corrupt (callers pass twins)
  }
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  (*sums_)[0].sum.fetch_add(other.sum(), std::memory_order_relaxed);
  const double omin = other.observed_min_->load(std::memory_order_relaxed);
  const double omax = other.observed_max_->load(std::memory_order_relaxed);
  double seen = observed_min_->load(std::memory_order_relaxed);
  while (omin < seen && !observed_min_->compare_exchange_weak(
                            seen, omin, std::memory_order_relaxed)) {
  }
  seen = observed_max_->load(std::memory_order_relaxed);
  while (omax > seen && !observed_max_->compare_exchange_weak(
                            seen, omax, std::memory_order_relaxed)) {
  }
}

void HdrHistogram::reset() noexcept {
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  for (SumCell& c : *sums_) c.sum.store(0.0, std::memory_order_relaxed);
  observed_min_->store(std::numeric_limits<double>::infinity(),
                       std::memory_order_relaxed);
  observed_max_->store(-std::numeric_limits<double>::infinity(),
                       std::memory_order_relaxed);
}

std::vector<HdrHistogram::Bucket> HdrHistogram::nonzero_buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) out.push_back({bucket_lower(i), bucket_upper(i), n});
  }
  return out;
}

// ---------------------------------------------------------------------------
// WindowedHdr

WindowedHdr::WindowedHdr(std::size_t epochs, HdrOptions options)
    : options_(options) {
  FSDA_CHECK_MSG(epochs >= 1, "WindowedHdr needs at least one epoch");
  epochs_.reserve(epochs);
  for (std::size_t i = 0; i < epochs; ++i) {
    epochs_.push_back(std::make_unique<HdrHistogram>(options_));
  }
}

void WindowedHdr::rotate() noexcept {
  const std::size_t next =
      (current_.load(std::memory_order_relaxed) + 1) % epochs_.size();
  epochs_[next]->reset();
  current_.store(next, std::memory_order_relaxed);
}

HdrHistogram WindowedHdr::merged() const {
  HdrHistogram out(options_);
  for (const auto& epoch : epochs_) out.merge_from(*epoch);
  return out;
}

}  // namespace fsda::obs
