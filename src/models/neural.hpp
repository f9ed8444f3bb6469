// fsda::models -- neural tabular classifiers: MLP and TNet.
//
// TNet substitutes TabularNet (see DESIGN.md): a learned feature-gating
// (attention) layer over the telemetry vector feeding an MLP trunk.  Both
// train with Adam on weighted softmax cross-entropy.
#pragma once

#include <optional>

#include "models/classifier.hpp"
#include "nn/sequential.hpp"

namespace fsda::models {

/// Training hyperparameters for the neural classifiers.
struct NeuralOptions {
  std::vector<std::size_t> hidden = {64, 32};
  std::size_t epochs = 30;
  std::size_t batch_size = 64;
  double learning_rate = 1e-3;
  double weight_decay = 1e-5;
  double dropout = 0.0;
};

/// Multilayer perceptron classifier.
class MLPClassifier : public Classifier {
 public:
  explicit MLPClassifier(std::uint64_t seed, NeuralOptions options = {},
                         bool feature_gate = false);

  void fit(const la::Matrix& x, const std::vector<std::int64_t>& y,
           std::size_t num_classes,
           const std::vector<double>& weights) override;
  [[nodiscard]] la::Matrix predict_proba(const la::Matrix& x) const override;
  [[nodiscard]] std::string name() const override {
    return feature_gate_ ? "TNet" : "MLP";
  }

  /// Continues training on new data (the Fine-Tune baseline re-optimizes
  /// all parameters, as in the paper's Section VI-B(a)).
  void fine_tune(const la::Matrix& x, const std::vector<std::int64_t>& y,
                 std::size_t epochs, double learning_rate,
                 const std::vector<double>& weights = {});

  /// Mean training loss of the last epoch run (diagnostic).
  [[nodiscard]] double last_epoch_loss() const { return last_loss_; }

  /// The trained network, or nullptr before fit(); used by the
  /// inference-plan compiler.  Invalidated by the next fit().
  [[nodiscard]] nn::Sequential* network() const { return net_.get(); }
  [[nodiscard]] std::size_t num_features() const { return num_features_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }

 private:
  void run_epochs(const la::Matrix& x, const std::vector<std::int64_t>& y,
                  const std::vector<double>& weights, std::size_t epochs,
                  double learning_rate);
  void build(std::size_t in, std::size_t out);

  std::uint64_t seed_;
  NeuralOptions options_;
  bool feature_gate_;
  std::unique_ptr<nn::Sequential> net_;
  std::size_t num_classes_ = 0;
  std::size_t num_features_ = 0;
  double last_loss_ = 0.0;
};

/// TNet: MLP with a learned feature-gate front end (DESIGN.md substitution
/// for TabularNet).  Table I's consistently strongest downstream model.
class TNetClassifier : public MLPClassifier {
 public:
  explicit TNetClassifier(std::uint64_t seed, NeuralOptions options = {})
      : MLPClassifier(seed, std::move(options), /*feature_gate=*/true) {}
};

}  // namespace fsda::models
