// fsda::models -- the model-agnostic classifier interface.
//
// The paper's framework is deliberately model-agnostic (Section I): the DA
// pipeline only ever sees fit() / predict_proba(), so any downstream
// network-management model can be plugged in.  Table I evaluates four:
// TNet, MLP, RandomForest and XGBoost, all provided here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace fsda::models {

/// Abstract multiclass classifier over tabular data.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on row-sample data with labels in [0, num_classes).
  /// `weights` are optional per-sample importance weights (empty = uniform).
  virtual void fit(const la::Matrix& x, const std::vector<std::int64_t>& y,
                   std::size_t num_classes,
                   const std::vector<double>& weights) = 0;

  /// Per-class probability rows; requires a prior fit().  A serving
  /// session calls it from several threads at once, one row chunk each
  /// (core/inference_session.hpp), so it must not mutate shared state.
  [[nodiscard]] virtual la::Matrix predict_proba(const la::Matrix& x)
      const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Hard predictions via argmax of predict_proba.
  [[nodiscard]] std::vector<std::int64_t> predict(const la::Matrix& x) const;

  /// Convenience overload with uniform weights.
  void fit(const la::Matrix& x, const std::vector<std::int64_t>& y,
           std::size_t num_classes) {
    fit(x, y, num_classes, {});
  }
};

/// Factory producing a fresh classifier for a given seed; the DA methods
/// receive factories, never concrete models, to stay model-agnostic.
using ClassifierFactory =
    std::function<std::unique_ptr<Classifier>(std::uint64_t seed)>;

/// Row-wise argmax helper shared by the implementations.
std::vector<std::int64_t> argmax_rows(const la::Matrix& proba);

}  // namespace fsda::models
