// fsda::nn -- learned per-feature gating layer (the attention mechanism of
// our TNet tabular classifier, see DESIGN.md substitution table).
//
// y = x * softmax_temperature(a), where a is a learned logit per feature and
// the softmax is scaled by the feature count so that an uninformative gate
// starts as the identity.  The gate learns to emphasize informative telemetry
// groups and suppress noisy ones -- the effective inductive bias TabularNet
// brings for flat telemetry vectors.
#pragma once

#include "nn/layer.hpp"

namespace fsda::nn {

/// Elementwise feature gate with learned attention logits.
class FeatureGate : public Layer {
 public:
  explicit FeatureGate(std::size_t features, double temperature = 1.0);

  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::string name() const override { return "FeatureGate"; }

  /// Current gate values (softmax of logits, scaled by feature count).
  [[nodiscard]] la::Matrix gate_values() const;

 private:
  void gate_values_into(la::Matrix& gate) const;
  void forward_rows(std::size_t r0, std::size_t r1);
  void backward_rows(std::size_t r0, std::size_t r1);
  void param_grad_units(std::size_t u0, std::size_t u1);

  std::size_t features_;
  double temperature_;
  Parameter logits_;
  const la::Matrix* cached_input_ = nullptr;
  la::Matrix* out_ = nullptr;
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
  la::Matrix* grad_gate_ = nullptr;  // 1 x d workspace slot
  la::Matrix cached_gate_;  // 1 x d
};

}  // namespace fsda::nn
