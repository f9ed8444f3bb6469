// fsda::causal -- targeted F-node search: the scalable core of the paper's
// feature-separation method (Section V-A).
//
// Following the Ψ-FCI formulation adapted to our no-latent-confounder
// setting, the source dataset is labeled F=0 and the target dataset F=1;
// the F-node is constrained to have no outgoing edges, and -- as the paper
// notes in Section VI-D -- the search "focuses solely on direct relationships
// with the F-node, rather than constructing the entire causal graph".
//
// Concretely, for each feature X we run a levelwise PC-style edge test
// against F: at level l we try conditioning sets S of size l drawn from a
// screened candidate-parent pool of X (the features most correlated with X),
// and remove the X--F edge as soon as some S renders X ⊥ F | S.  Features
// whose edge survives every level are the intervention targets, i.e. the
// domain-variant features (eq. 3-4 of the paper).
//
// Two re-adaptation fast paths (DESIGN.md §16):
//  - The search can run from GramStats sufficient statistics instead of
//    materialized rows: the combined [source; target; F] correlation matrix
//    assembles in O(d²), so repeated re-adaptations skip the O(n·d²)
//    column scans entirely.
//  - The search can warm-start from a previous generation's separating
//    sets: each previously-invariant feature is probed with its old sepset
//    first and the level enumeration is skipped on reconfirmation.
#pragma once

#include <cstddef>
#include <vector>

#include "la/matrix.hpp"
#include "la/stats.hpp"

namespace fsda::causal {

/// Options for the targeted search.
struct FNodeOptions {
  /// Significance level of the Fisher-z tests.
  double alpha = 0.01;
  /// Largest conditioning-set size tried per feature.
  std::size_t max_condition_size = 2;
  /// Size of the screened candidate-parent pool per feature.
  std::size_t candidate_pool = 8;
  /// Cap on subsets tried per level per feature (0 = exhaustive).
  std::size_t max_subsets_per_level = 64;
  /// Run the per-feature loop on the global thread pool.
  bool parallel = true;
  /// Wall-clock watchdog in milliseconds (0 = unbounded).  On budget
  /// exhaustion the search stops issuing CI tests and returns the
  /// best-so-far partition with `truncated` set: features whose levelwise
  /// search was cut short keep their marginal verdict (dependent ->
  /// variant), and features never tested default to invariant.
  std::size_t deadline_ms = 0;
};

/// Previous-generation state seeding a warm-started search.  Passing a
/// seed is what makes a search warm: each previously-invariant feature's
/// old sepset is probed first, and the early exit is taken only when the
/// probe is provably within the cold search's tried set (subset of the
/// current candidate pool, level within max_condition_size, enumeration
/// rank within max_subsets_per_level).  The returned partition is
/// IDENTICAL to a cold run on the same correlation matrix; the only cost
/// is at most one extra CI test per non-reconfirmed feature.
struct FNodeSeed {
  /// Separating set per feature (FNodeResult::sepsets of the previous
  /// search).  Empty inner vectors (level-0 / variant features) are not
  /// probed -- marginally independent features already exit in phase 1.
  std::vector<std::vector<std::size_t>> sepsets;
};

/// Outcome of the targeted F-node search.
struct FNodeResult {
  std::vector<std::size_t> variant;    ///< intervention targets R (eq. 4)
  std::vector<std::size_t> invariant;  ///< V \ R
  /// Marginal X ⊥ F p-value per feature (diagnostic).
  std::vector<double> marginal_p;
  /// Separating set that rendered X ⊥ F | S, per feature: empty for
  /// marginally independent (level 0) and for variant features.  Feed back
  /// as FNodeSeed::sepsets to warm-start the next search.
  std::vector<std::vector<std::size_t>> sepsets;
  std::size_t ci_tests_performed = 0;
  /// Warm-start probes that reconfirmed their old sepset (level search
  /// skipped entirely).
  std::size_t warm_reconfirmed = 0;
  /// True when FNodeOptions::deadline_ms expired before the search
  /// completed; the partition is then best-so-far, not exhaustive.
  bool truncated = false;
};

/// Runs the targeted search on already-combined data.
///
/// `source` and `target` are row-sample matrices over the same d features.
/// Returns the variant/invariant partition of the d features.  `seed`
/// (optional) warm-starts the search (see FNodeSeed).
FNodeResult find_intervention_targets(const la::Matrix& source,
                                      const la::Matrix& target,
                                      const FNodeOptions& options = {},
                                      const FNodeSeed* seed = nullptr);

/// Runs the identical search from sufficient statistics: the combined
/// correlation (with the F-node appended) is assembled in O(d²) from
/// `source` and `target` GramStats over the same d scaled features, so no
/// combined matrix is materialized and no rows are rescanned.  The
/// effective Fisher-z sample size is round(source.weight() +
/// target.weight()).  Statistics must be accumulated over the SAME scaled
/// representation the materialized path would see.
FNodeResult find_intervention_targets(const la::GramStats& source,
                                      const la::GramStats& target,
                                      const FNodeOptions& options = {},
                                      const FNodeSeed* seed = nullptr);

}  // namespace fsda::causal
