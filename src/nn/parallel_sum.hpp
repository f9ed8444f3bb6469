// fsda::nn -- sum of two parallel branches sharing one input.
//
// Used by the reconstructors: a direct linear path captures the (dominant)
// linear structure of telemetry conditionals quickly, while an MLP branch
// learns the nonlinear correction.  y = branch_a(x) + branch_b(x).
#pragma once

#include "nn/layer.hpp"

namespace fsda::nn {

/// y = a(x) + b(x); gradients flow through both branches.
class ParallelSum : public Layer {
 public:
  ParallelSum(LayerPtr a, LayerPtr b);

  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  std::vector<Parameter*> parameters() override;
  void for_each_child(const std::function<void(Layer&)>& fn) override;
  [[nodiscard]] std::string name() const override { return "ParallelSum"; }
  [[nodiscard]] std::size_t output_size(std::size_t input_size) const override;

  /// Branch access (used by the inference-plan compiler).
  [[nodiscard]] Layer& branch_a() { return *a_; }
  [[nodiscard]] Layer& branch_b() { return *b_; }

 private:
  /// out_ = lhs_ + rhs_ over rows [r0, r1): the branch sum in forward,
  /// the dX sum in backward.
  void add_rows(std::size_t r0, std::size_t r1);

  LayerPtr a_;
  LayerPtr b_;
  const la::Matrix* lhs_ = nullptr;
  const la::Matrix* rhs_ = nullptr;
  la::Matrix* out_ = nullptr;
};

}  // namespace fsda::nn
