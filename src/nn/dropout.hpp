// fsda::nn -- inverted dropout (the CTGAN-style discriminator uses dropout
// after each LeakyReLU).
#pragma once

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace fsda::nn {

/// Inverted dropout: during training, zeroes each activation with
/// probability p and scales survivors by 1/(1-p); identity at inference.
class Dropout : public Layer {
 public:
  Dropout(double p, common::Rng rng);

  using Layer::forward;
  using Layer::backward;
  const la::Matrix& forward(const la::Matrix& input, bool training,
                            Workspace& ws) override;
  const la::Matrix& backward(const la::Matrix& grad_output,
                             Workspace& ws) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }

  /// Replaces the mask stream (sharded replicas get decorrelated streams).
  void reseed(common::Rng rng) { rng_ = rng; }

 private:
  double p_;
  common::Rng rng_;
  // The last training forward's keep/scale mask, in that forward's
  // workspace; nullptr after an identity (inference) forward.
  const la::Matrix* mask_ = nullptr;
};

}  // namespace fsda::nn
