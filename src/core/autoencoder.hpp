// fsda::core -- vanilla autoencoder reconstructor (the FS+VanillaAE
// ablation of Table II): a deterministic regression network from X_inv to
// X_var trained with MSE, architecture matching the GAN generator.
#pragma once

#include "common/retry.hpp"
#include "common/rng.hpp"
#include "core/health.hpp"
#include "core/reconstructor.hpp"
#include "nn/sequential.hpp"

namespace fsda::core {

struct AutoencoderOptions {
  std::vector<std::size_t> hidden;  ///< empty = auto, same rule as the GAN
  std::size_t epochs = 60;
  std::size_t batch_size = 96;
  double learning_rate = 1e-3;
  double weight_decay = 1e-6;
  /// Divergence recovery: snapshot/rollback + lr-decayed, reseeded retries
  /// (same scheme as the GAN; see core/health.hpp).
  common::RetryPolicy retry;
  DivergenceMonitorOptions divergence;
  std::size_t snapshot_every = 10;

  static AutoencoderOptions quick();
};

class AutoencoderReconstructor : public Reconstructor {
 public:
  AutoencoderReconstructor(std::size_t inv_dim, std::size_t var_dim,
                           AutoencoderOptions options, std::uint64_t seed);

  void fit(const la::Matrix& x_inv, const la::Matrix& x_var,
           const std::vector<std::int64_t>& labels,
           std::size_t num_classes) override;
  la::Matrix reconstruct(la::ConstMatrixView x_inv) override;
  [[nodiscard]] std::string name() const override { return "VanillaAE"; }
  /// The network over x_inv alone: no noise block.
  [[nodiscard]] ServingStage serving_stage() override;

  [[nodiscard]] double last_loss() const { return last_loss_; }

  [[nodiscard]] const TrainHealth& train_health() const {
    return train_health_;
  }
  [[nodiscard]] bool healthy() const override { return train_health_.healthy; }
  [[nodiscard]] std::size_t fit_retries() const override {
    return train_health_.retries;
  }
  [[nodiscard]] std::size_t fit_rollbacks() const override {
    return train_health_.rollbacks;
  }

 private:
  std::size_t inv_dim_;
  std::size_t var_dim_;
  AutoencoderOptions options_;
  common::Rng rng_;
  std::unique_ptr<nn::Sequential> net_;
  double last_loss_ = 0.0;
  TrainHealth train_health_;
  bool fitted_ = false;
};

}  // namespace fsda::core
