// fsda::nn -- fully connected (affine) layer.
#pragma once

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace fsda::nn {

/// y = x W + b with He/Glorot-style initialization.
class Linear : public Layer {
 public:
  /// Initializes W as in_features x out_features with
  /// N(0, sqrt(2 / (in + out))) entries (Glorot) and b = 0.
  Linear(std::size_t in_features, std::size_t out_features, common::Rng& rng);

  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::string name() const override { return "Linear"; }
  [[nodiscard]] std::size_t output_size(std::size_t) const override {
    return out_features_;
  }

  [[nodiscard]] std::size_t in_features() const { return in_features_; }
  [[nodiscard]] std::size_t out_features() const { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Parameter weight_;
  Parameter bias_;
  void forward_rows(std::size_t r0, std::size_t r1);
  void grad_input_rows(std::size_t r0, std::size_t r1);
  /// Units [0, in_features) are rows of dW, unit in_features is the bias.
  void param_grad_units(std::size_t u0, std::size_t u1);

  // Pointers of the pass being staged: the forward input (kept for dW),
  // output and weight pack; the backward gradient, dX buffer and pack.
  const la::Matrix* cached_input_ = nullptr;
  la::Matrix* out_ = nullptr;
  const la::PackedB* pack_ = nullptr;
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
  const la::PackedB* pack_t_ = nullptr;
};

}  // namespace fsda::nn
