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

  using Layer::forward;
  using Layer::backward;
  const la::Matrix& forward(const la::Matrix& input, bool training,
                            Workspace& ws) override;
  const la::Matrix& backward(const la::Matrix& grad_output,
                             Workspace& ws) override;
  std::vector<Parameter*> parameters() override;
  [[nodiscard]] std::string name() const override { return "BatchNorm1d"; }

  [[nodiscard]] const la::Matrix& running_mean() const { return running_mean_; }
  [[nodiscard]] const la::Matrix& running_var() const { return running_var_; }
  [[nodiscard]] const la::Matrix& gamma() const { return gamma_.value; }
  [[nodiscard]] const la::Matrix& beta() const { return beta_.value; }
  [[nodiscard]] double eps() const { return eps_; }

  /// Batch statistics of the most recent forward and whether that forward
  /// actually used them (training mode, batch > 1).  The sharded trainer
  /// reads these off each replica to rebuild exact full-batch statistics.
  [[nodiscard]] const la::Matrix& last_batch_mean() const { return mean_; }
  [[nodiscard]] const la::Matrix& last_batch_var() const { return var_; }
  [[nodiscard]] bool last_used_batch_stats() const {
    return last_forward_used_batch_stats_;
  }

  /// Folds externally combined batch statistics into the running averages,
  /// using exactly the EMA update a training forward would have applied.
  /// The sharded trainer calls this on the master after combining its
  /// replicas' shard statistics (the replicas' own running averages are
  /// throwaway).
  void apply_running_update(const la::Matrix& mean, const la::Matrix& var);

 private:
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
  const la::Matrix* cached_norm_ = nullptr;
  bool seen_batch_ = false;
  bool last_forward_used_batch_stats_ = false;
};

}  // namespace fsda::nn
