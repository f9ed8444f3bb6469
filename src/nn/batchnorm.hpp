// fsda::nn -- 1-D batch normalization (per-feature, over the batch axis).
//
// The CTGAN-style generator of the paper normalizes each hidden layer.
// Running statistics are tracked with exponential averaging for inference.
#pragma once

#include "nn/layer.hpp"

namespace fsda::nn {

/// BatchNorm over rows: y = gamma * (x - mu) / sqrt(var + eps) + beta.
class BatchNorm1d : public Layer {
 public:
  explicit BatchNorm1d(std::size_t features, double momentum = 0.9,
                       double eps = 1e-5);

  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::string name() const override { return "BatchNorm1d"; }

  [[nodiscard]] const la::Matrix& running_mean() const { return running_mean_; }
  [[nodiscard]] const la::Matrix& running_var() const { return running_var_; }
  [[nodiscard]] const la::Matrix& gamma() const { return gamma_.value; }
  [[nodiscard]] const la::Matrix& beta() const { return beta_.value; }
  [[nodiscard]] double eps() const { return eps_; }

 private:
  void forward_rows(std::size_t r0, std::size_t r1);
  void backward_rows(std::size_t r0, std::size_t r1);
  void param_grad_units(std::size_t u0, std::size_t u1);

  std::size_t features_;
  double momentum_;
  double eps_;
  Parameter gamma_;
  Parameter beta_;
  la::Matrix running_mean_;
  la::Matrix running_var_;
  // Statistics of the last forward (1 x d).  The batch-sized normalized
  // input lives in the forward's workspace; backward reads it through
  // cached_norm_, which (like Linear's cached input) is valid only until
  // that workspace runs this layer's forward again or is destroyed.
  la::Matrix mean_;
  la::Matrix var_;
  la::Matrix cached_inv_std_;
  const la::Matrix* input_ = nullptr;
  la::Matrix* cached_norm_ = nullptr;
  la::Matrix* out_ = nullptr;
  // Backward: the incoming gradient, dX, and the column sums sum(g) and
  // sum(g * xn) (1 x d workspace slots) both dX and gamma/beta read.
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
  const la::Matrix* sum_g_ = nullptr;
  const la::Matrix* sum_g_xn_ = nullptr;
  bool seen_batch_ = false;
  bool last_forward_used_batch_stats_ = false;
};

}  // namespace fsda::nn
