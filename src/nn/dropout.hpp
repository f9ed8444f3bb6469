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

  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }

 private:
  void draw_mask();
  void forward_rows(std::size_t r0, std::size_t r1);
  void backward_rows(std::size_t r0, std::size_t r1);

  double p_;
  common::Rng rng_;
  // The last training forward's keep/scale mask, in that forward's
  // workspace; nullptr after an identity (inference) forward.
  la::Matrix* mask_ = nullptr;
  const la::Matrix* input_ = nullptr;
  la::Matrix* out_ = nullptr;
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
};

}  // namespace fsda::nn
