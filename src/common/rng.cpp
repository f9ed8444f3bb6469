#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace fsda::common {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro256** misbehaves on the all-zero state; splitmix64 cannot produce
  // four zero words from any seed, but keep the guard explicit.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

Rng Rng::split(std::uint64_t tag) {
  const std::uint64_t a = (*this)();
  return Rng(a ^ (tag * 0xD1342543DE82EF95ULL) ^ 0xA0761D6478BD642FULL);
}

double Rng::uniform(double lo, double hi) {
  FSDA_CHECK_MSG(lo <= hi, "uniform bounds inverted: " << lo << " > " << hi);
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller on two uniforms; guard against log(0).
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  FSDA_CHECK_MSG(stddev >= 0.0, "negative stddev " << stddev);
  return mean + stddev * normal();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  FSDA_CHECK_MSG(n > 0, "uniform_index requires n > 0");
  return uniform_index(n, index_limit(n));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  FSDA_CHECK_MSG(lo <= hi, "uniform_int bounds inverted");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  FSDA_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FSDA_CHECK_MSG(w >= 0.0, "negative categorical weight " << w);
    total += w;
  }
  FSDA_CHECK_MSG(total > 0.0, "categorical weights sum to zero");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // numerical slack: land on the last bucket
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  FSDA_CHECK_MSG(k <= n, "cannot sample " << k << " of " << n);
  // Partial Fisher-Yates over an index vector; O(n) memory, O(n + k) time.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(uniform_index(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

std::vector<double> Rng::normal_vector(std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) x = normal();
  return v;
}

}  // namespace fsda::common
