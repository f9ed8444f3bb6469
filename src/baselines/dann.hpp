// fsda::baselines -- DANN (Domain-Adversarial Neural Network, Ganin &
// Lempitsky '15, as applied to network management in [14]/[15]).
//
// A shared feature extractor feeds a label head and a domain head; the
// domain head's gradient is *reversed* before flowing into the extractor, so
// the extractor learns label-discriminative but domain-indistinguishable
// representations.  In the few-shot setting the labeled target shots join
// the label loss (resampled per batch) and all target shots serve as the
// domain-1 examples.  Model-specific (uses its own MLP architecture).
#pragma once

#include "baselines/da_method.hpp"
#include "common/rng.hpp"
#include "data/scaler.hpp"
#include "nn/sequential.hpp"

namespace fsda::baselines {

struct DannOptions {
  std::vector<std::size_t> feature_hidden = {64, 32};
  std::size_t epochs = 30;
  std::size_t batch_size = 64;
  double learning_rate = 1e-3;
  double weight_decay = 1e-5;
  /// Peak gradient-reversal strength (annealed in over training).
  double lambda_max = 1.0;
};

class Dann : public DAMethod {
 public:
  explicit Dann(DannOptions options = {}) : options_(std::move(options)) {}

  [[nodiscard]] std::string name() const override { return "DANN"; }
  [[nodiscard]] bool model_agnostic() const override { return false; }
  void fit(const DAContext& context) override;
  [[nodiscard]] la::Matrix predict_proba(const la::Matrix& x_raw) override;

 private:
  DannOptions options_;
  data::StandardScaler scaler_;
  std::unique_ptr<nn::Sequential> features_;
  std::unique_ptr<nn::Sequential> label_head_;
  std::unique_ptr<nn::Sequential> domain_head_;
  std::size_t num_classes_ = 0;
};

}  // namespace fsda::baselines
