// fsda::core -- conditional VAE reconstructor (the FS+VAE ablation of
// Table II).
//
// Models P(X_var | X_inv) with an encoder q(z | X_inv, X_var) and a decoder
// p(X_var | X_inv, z); at inference z is drawn from the prior, mirroring the
// GAN's noise input.  Network widths match the generator architecture
// (Section VI-E: "the neural network architecture of the VAE ... matches our
// generator model").
#pragma once

#include "common/retry.hpp"
#include "common/rng.hpp"
#include "core/health.hpp"
#include "core/reconstructor.hpp"
#include "nn/sequential.hpp"

namespace fsda::core {

struct VaeOptions {
  std::size_t latent_dim = 0;  ///< 0 = auto, same rule as the GAN noise dim
  std::vector<std::size_t> hidden;  ///< empty = auto, same rule as the GAN
  std::size_t epochs = 60;
  std::size_t batch_size = 96;
  double learning_rate = 1e-3;
  double weight_decay = 1e-6;
  double kl_weight = 0.05;  ///< beta weighting of the KL term
  /// Divergence recovery: snapshot/rollback + lr-decayed, reseeded retries
  /// (same scheme as the GAN; see core/health.hpp).
  common::RetryPolicy retry;
  DivergenceMonitorOptions divergence;
  std::size_t snapshot_every = 10;

  static VaeOptions quick();
};

class VaeReconstructor : public Reconstructor {
 public:
  VaeReconstructor(std::size_t inv_dim, std::size_t var_dim,
                   VaeOptions options, std::uint64_t seed);

  void fit(const la::Matrix& x_inv, const la::Matrix& x_var,
           const std::vector<std::int64_t>& labels,
           std::size_t num_classes) override;
  la::Matrix reconstruct(la::ConstMatrixView x_inv) override;
  [[nodiscard]] std::string name() const override { return "VAE"; }
  /// The decoder over [x_inv | z], latent_dim, and the VAE's own stream.
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
  VaeOptions options_;
  std::size_t latent_dim_;
  common::Rng rng_;
  /// [inv|z] -> var; the encoder is local to fit().
  std::unique_ptr<nn::Sequential> decoder_;
  double last_loss_ = 0.0;
  TrainHealth train_health_;
  bool fitted_ = false;
};

}  // namespace fsda::core
