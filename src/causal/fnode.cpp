#include "causal/fnode.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>

#include "causal/ci_test.hpp"
#include "causal/pc.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace fsda::causal {

namespace {

/// Saturating binomial coefficient (the rank bound below only ever compares
/// against a subset budget, so overflow saturates harmlessly).
std::uint64_t binom_sat(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t acc = 1;
  for (std::size_t i = 1; i <= k; ++i) {
    const std::uint64_t num = static_cast<std::uint64_t>(n - k + i);
    if (acc > std::numeric_limits<std::uint64_t>::max() / num) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    acc = acc * num / i;
  }
  return acc;
}

/// Lexicographic rank of the sorted position-combination `pos` (ascending,
/// drawn from {0..n-1}) in for_each_subset's enumeration order -- i.e. how
/// many subsets the cold search tries before reaching this one.
std::uint64_t subset_lex_rank(std::span<const std::size_t> pos,
                              std::size_t n) {
  std::uint64_t rank = 0;
  std::size_t from = 0;
  const std::size_t k = pos.size();
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t v = from; v < pos[i]; ++v) {
      const std::uint64_t skipped = binom_sat(n - 1 - v, k - 1 - i);
      if (rank > std::numeric_limits<std::uint64_t>::max() - skipped) {
        return std::numeric_limits<std::uint64_t>::max();
      }
      rank += skipped;
    }
    from = pos[i] + 1;
  }
  return rank;
}

/// The shared levelwise search core: everything after the correlation
/// matrix exists.  `test` wraps either a materialized combined matrix (cold
/// path) or a GramStats-assembled correlation (fast path); the F-node is
/// column `d` of the test's variables.
FNodeResult run_search(const FisherZTest& test, const FNodeOptions& options,
                       const FNodeSeed* seed) {
  const std::size_t d = test.num_variables() - 1;
  const std::size_t f_index = d;
  const la::Matrix& corr = test.correlation_matrix();

  FNodeResult result;
  result.marginal_p.assign(d, 1.0);
  result.sepsets.assign(d, {});
  std::vector<char> is_variant(d, 0);
  std::vector<char> marginally_independent(d, 0);
  std::atomic<std::size_t> tests_performed{0};
  std::atomic<std::size_t> warm_reconfirmed{0};

  // Watchdog: once the deadline fires, every worker short-circuits and the
  // result is flagged truncated.  The flag is sticky so the wall clock is
  // consulted at most once per deadline overrun per worker.
  common::Stopwatch deadline_timer;
  std::atomic<bool> deadline_hit{false};
  const auto past_deadline = [&]() -> bool {
    if (options.deadline_ms == 0) return false;
    if (deadline_hit.load(std::memory_order_relaxed)) return true;
    if (deadline_timer.millis() >=
        static_cast<double>(options.deadline_ms)) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  // Phase 1: marginal tests X ⊥ F for every feature.  Features passing are
  // invariant at level 0 AND become the candidate conditioning pool for
  // phase 2: a valid separating set must not contain descendants of F
  // (children of F are the intervened features themselves; conditioning on
  // a co-intervened sibling spuriously explains the shift away), so we only
  // condition on features that already look F-independent.
  auto marginal_phase = [&](std::size_t x) {
    if (past_deadline()) {
      // Untested feature: no evidence of dependence, default to invariant
      // (marginal_p stays 1.0); the truncation flag tells the caller.
      marginally_independent[x] = 1;
      return;
    }
    const CiResult marginal = test.test(x, f_index, {});
    tests_performed.fetch_add(1, std::memory_order_relaxed);
    result.marginal_p[x] = marginal.p_value;
    marginally_independent[x] = marginal.independent ? 1 : 0;
  };
  if (options.parallel) {
    common::parallel_for(d, marginal_phase);
  } else {
    for (std::size_t x = 0; x < d; ++x) marginal_phase(x);
  }

  // Separating-set size distribution: level 0 for marginally independent
  // features, the successful level L otherwise.  Hoisted once; record() is
  // wait-free and safe from pool workers.
  obs::HdrHistogram& sepset_size = obs::MetricsRegistry::global().hdr(
      "fs.sepset_size", obs::HdrOptions{},
      "separating-set size at which features tested F-independent");
  for (std::size_t x = 0; x < d; ++x) {
    if (marginally_independent[x]) sepset_size.record(0.0);
  }

  auto process_feature = [&](std::size_t x) {
    if (marginally_independent[x]) return;  // invariant at level 0

    // Screen the candidate-parent pool: marginally F-independent features
    // most correlated with X.  If X's marginal dependence on F is mediated
    // by its (non-intervened) causal parents, those parents are strongly
    // correlated with X and conditioning on them separates X from F.
    std::vector<std::size_t> pool;
    pool.reserve(d);
    for (std::size_t a = 0; a < d; ++a) {
      if (a != x && marginally_independent[a]) pool.push_back(a);
    }
    std::sort(pool.begin(), pool.end(), [&](std::size_t a, std::size_t b) {
      return std::abs(corr(x, a)) > std::abs(corr(x, b));
    });
    if (pool.size() > options.candidate_pool) {
      pool.resize(options.candidate_pool);
    }

    // Warm-start probe: the previous generation separated X from F with
    // S_old -- test that exact set before enumerating anything.  The early
    // exit is taken only when the cold search would provably have tried
    // S_old itself (members inside the screened pool, level within budget,
    // lexicographic enumeration rank within max_subsets_per_level): cold
    // declares X invariant iff ANY tried subset separates, so reconfirming
    // a cold-tried subset cannot change the verdict.  When the probe fails
    // (or is ineligible) the normal enumeration below runs in full, with
    // the probe NOT counted against the subset budget -- the warm partition
    // is therefore identical to a cold run, at the cost of at most one
    // extra CI test here.
    const std::vector<std::size_t>* warm_set = nullptr;
    if (seed != nullptr && x < seed->sepsets.size() &&
        !seed->sepsets[x].empty() &&
        seed->sepsets[x].size() <= options.max_condition_size) {
      warm_set = &seed->sepsets[x];
      for (const std::size_t m : *warm_set) {
        // Conditioning on a now-marginally-dependent feature (a freshly
        // intervened one) would spuriously explain the shift away.
        if (m >= d || m == x || !marginally_independent[m]) {
          warm_set = nullptr;
          break;
        }
      }
    }
    if (warm_set != nullptr) {
      std::vector<std::size_t> pos;
      pos.reserve(warm_set->size());
      for (const std::size_t m : *warm_set) {
        const auto it = std::find(pool.begin(), pool.end(), m);
        if (it == pool.end()) {
          warm_set = nullptr;
          break;
        }
        pos.push_back(static_cast<std::size_t>(it - pool.begin()));
      }
      if (warm_set != nullptr && options.max_subsets_per_level != 0) {
        std::sort(pos.begin(), pos.end());
        if (subset_lex_rank(pos, pool.size()) >=
            options.max_subsets_per_level) {
          warm_set = nullptr;
        }
      }
    }
    if (warm_set != nullptr && !past_deadline()) {
      tests_performed.fetch_add(1, std::memory_order_relaxed);
      if (test.test(x, f_index, *warm_set).independent) {
        result.sepsets[x] = *warm_set;
        warm_reconfirmed.fetch_add(1, std::memory_order_relaxed);
        sepset_size.record(static_cast<double>(warm_set->size()));
        return;  // invariant: the old separating set still separates
      }
    }

    for (std::size_t level = 1; level <= options.max_condition_size; ++level) {
      if (pool.size() < level) break;
      if (past_deadline()) break;  // keep the marginal verdict: variant
      std::size_t tried = 0;
      bool found_separator = false;
      for_each_subset(pool, level, [&](std::span<const std::size_t> subset) {
        if (options.max_subsets_per_level != 0 &&
            tried >= options.max_subsets_per_level) {
          return true;  // subset budget exhausted; stop enumerating
        }
        if (past_deadline()) return true;  // watchdog: stop enumerating
        ++tried;
        tests_performed.fetch_add(1, std::memory_order_relaxed);
        if (test.test(x, f_index, subset).independent) {
          found_separator = true;
          result.sepsets[x].assign(subset.begin(), subset.end());
          return true;
        }
        return false;
      });
      if (found_separator) {
        sepset_size.record(static_cast<double>(level));
        return;  // invariant: some S gives X ⊥ F | S
      }
    }
    is_variant[x] = 1;  // edge X -- F survived: intervention target (eq. 3)
  };

  if (options.parallel) {
    common::parallel_for(d, process_feature);
  } else {
    for (std::size_t x = 0; x < d; ++x) process_feature(x);
  }

  for (std::size_t x = 0; x < d; ++x) {
    if (is_variant[x]) result.variant.push_back(x);
    else result.invariant.push_back(x);
  }
  result.ci_tests_performed = tests_performed.load();
  result.warm_reconfirmed = warm_reconfirmed.load();
  result.truncated = deadline_hit.load();
  const double search_seconds = deadline_timer.seconds();
  auto& registry = obs::MetricsRegistry::global();
  registry
      .counter("fs.ci_tests_total", "CI tests run by the F-node search")
      .inc(result.ci_tests_performed);
  if (search_seconds > 0.0 && result.ci_tests_performed > 0) {
    registry
        .gauge("fs.ci_tests_per_second",
               "CI-test throughput of the most recent F-node search")
        .set(static_cast<double>(result.ci_tests_performed) / search_seconds);
  }
  if (result.warm_reconfirmed > 0) {
    registry
        .counter("fs.warm_reconfirmed_total",
                 "warm-start probes whose old separating set reconfirmed")
        .inc(result.warm_reconfirmed);
  }
  if (result.truncated) {
    registry
        .counter("fs.truncations_total",
                 "F-node searches cut short by their deadline")
        .inc();
  }
  FSDA_LOG_INFO << "FNodeSearch: " << result.variant.size() << "/" << d
                << " variant features, " << result.ci_tests_performed
                << " CI tests"
                << (result.warm_reconfirmed > 0
                        ? " (" + std::to_string(result.warm_reconfirmed) +
                              " warm-reconfirmed)"
                        : "")
                << (result.truncated ? " (deadline truncated)" : "");
  return result;
}

}  // namespace

FNodeResult find_intervention_targets(const la::Matrix& source,
                                      const la::Matrix& target,
                                      const FNodeOptions& options,
                                      const FNodeSeed* seed) {
  FSDA_CHECK_MSG(source.cols() == target.cols(),
                 "source/target feature mismatch: " << source.cols() << " vs "
                                                    << target.cols());
  FSDA_CHECK_MSG(source.rows() >= 8, "too few source samples");
  FSDA_CHECK_MSG(target.rows() >= 1, "no target samples");

  // Build the combined dataset D* with the F-node appended as column d
  // (eq. 1: P*(V|F=0) = P_A, P*(V|F=1) = P_C).
  la::Matrix combined = source.vcat(target);
  la::Matrix f_col(combined.rows(), 1, 0.0);
  for (std::size_t r = source.rows(); r < combined.rows(); ++r) {
    f_col(r, 0) = 1.0;
  }
  combined = combined.hcat(f_col);

  const FisherZTest test(combined, options.alpha);
  return run_search(test, options, seed);
}

FNodeResult find_intervention_targets(const la::GramStats& source,
                                      const la::GramStats& target,
                                      const FNodeOptions& options,
                                      const FNodeSeed* seed) {
  FSDA_CHECK_MSG(source.dim() == target.dim(),
                 "source/target feature mismatch: " << source.dim() << " vs "
                                                    << target.dim());
  FSDA_CHECK_MSG(source.weight() >= 8.0, "too few source samples");
  FSDA_CHECK_MSG(target.weight() > 0.0, "no target samples");
  const la::GramStats combined =
      la::GramStats::with_indicator(source, target);
  const auto n = static_cast<std::size_t>(std::llround(combined.weight()));
  const FisherZTest test(combined.correlation(), n, options.alpha);
  return run_search(test, options, seed);
}

}  // namespace fsda::causal
