// fsda::common -- deterministic random number generation.
//
// Every stochastic component in fsda takes an explicit 64-bit seed and builds
// an Rng from it, so that all experiments are reproducible bit-for-bit.  Rng
// wraps a splitmix64-seeded xoshiro256** core and provides the distributions
// the library needs (uniform, normal, Bernoulli, integer ranges, shuffling,
// sampling without replacement).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace fsda::common {

/// Deterministic, explicitly seeded PRNG (xoshiro256** core).
///
/// Satisfies UniformRandomBitGenerator so it can also be fed to <random>
/// distributions, although the built-in members are preferred because their
/// output is stable across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Builds a generator from a 64-bit seed via splitmix64 state expansion.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64 random bits.  Inline: this is the per-element draw under
  /// dropout masks and noise sampling, where a call per element dominates
  /// the loop body.
  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child generator; deriving with distinct tags
  /// yields decorrelated streams (used to hand sub-seeds to components).
  [[nodiscard]] Rng split(std::uint64_t tag);

  /// Uniform double in [0, 1): 53 random bits scaled by 2^-53.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic, stdlib-independent).
  double normal();

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Rejection bound of uniform_index(n): raw draws at or above it are
  /// redrawn to avoid modulo bias.  Requires n > 0.
  static constexpr std::uint64_t index_limit(std::uint64_t n) {
    return max() - max() % n;
  }

  /// uniform_index(n) with its bound precomputed as index_limit(n), for
  /// loops that draw many indices below the same n: the same draws, one
  /// 64-bit division fewer per call.
  std::uint64_t uniform_index(std::uint64_t n, std::uint64_t limit) {
    std::uint64_t x = (*this)();
    while (x >= limit) x = (*this)();
    return x % n;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p in [0, 1].  Consumes one
  /// uniform regardless of p, so streams stay aligned across call sites.
  bool bernoulli(double p) { return uniform() < p; }

  /// Draws an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n) (order randomized).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Vector of n iid standard normal draws.
  std::vector<double> normal_vector(std::size_t n);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace fsda::common
