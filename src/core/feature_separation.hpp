// fsda::core -- Feature Separation (FS): step 1 of the paper's framework
// (Section V-A).
//
// Treats the domain shift as soft interventions on an unknown feature
// subset, identifies the intervention targets with the targeted F-node
// causal search, and partitions the feature space into domain-variant and
// domain-invariant sets.
#pragma once

#include <cstdint>
#include <vector>

#include "causal/fnode.hpp"
#include "data/dataset.hpp"

namespace fsda::core {

/// Result of feature separation, plus diagnostics.
struct SeparationResult {
  std::vector<std::size_t> variant;    ///< X_var = R (eq. 4)
  std::vector<std::size_t> invariant;  ///< X_inv = V \ R
  std::vector<double> marginal_p;      ///< per-feature marginal p-values
  /// Separating set per feature (empty for level-0 invariant and variant
  /// features); rides along in each ModelGeneration so the next
  /// re-adaptation can warm-start the search from it (DESIGN.md §16).
  std::vector<std::vector<std::size_t>> sepsets;
  std::size_t ci_tests_performed = 0;
  /// Warm-start probes whose previous separating set reconfirmed.
  std::size_t warm_reconfirmed = 0;
  double seconds = 0.0;
  /// True when the F-node search hit FNodeOptions::deadline_ms and the
  /// partition is best-so-far rather than exhaustive.
  bool truncated = false;
};

/// Precision/recall of a detected variant set against a ground-truth one
/// (only computable on our SCM substitutes -- see DESIGN.md).
struct SeparationQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

/// Runs FS on (already normalized) source vs. few-shot target features.
/// `seed` (optional) warm-starts the search (causal::FNodeSeed).
SeparationResult separate_features(const la::Matrix& source,
                                   const la::Matrix& target_few_shot,
                                   const causal::FNodeOptions& options = {},
                                   const causal::FNodeSeed* seed = nullptr);

/// Runs FS from sufficient statistics (re-adaptation fast path): the
/// combined correlation assembles in O(d²) from GramStats accumulated over
/// the same scaled representation the materialized path would see.
SeparationResult separate_features(const la::GramStats& source,
                                   const la::GramStats& target_few_shot,
                                   const causal::FNodeOptions& options = {},
                                   const causal::FNodeSeed* seed = nullptr);

/// Scores a detected variant set against the generator's ground truth.
SeparationQuality score_separation(const std::vector<std::size_t>& detected,
                                   const std::vector<std::size_t>& truth,
                                   std::size_t num_features);

}  // namespace fsda::core
