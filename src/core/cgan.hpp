// fsda::core -- the paper's conditional GAN reconstructor (Section V-C).
//
// Generator G([X_inv, Z]) -> X̂_var with two hidden layers (ReLU + batch
// norm, CTGAN-style) and a tanh output (features are normalized to [-1,1]);
// discriminator D([X_inv, X̂_var, Y]) with two LeakyReLU+Dropout layers and
// a sigmoid head.  The discriminator's label conditioning is the knob the
// FS+NoCond ablation of Table II turns off.  Losses follow eq. (8)-(9);
// both networks train with Adam (lr 2e-4, weight decay 1e-6, Section V-C3).
//
// An optional L2 reconstruction term on the generator (pix2pix-style)
// stabilizes the small training budgets used on a single core; setting
// `recon_weight = 0` recovers the paper's pure adversarial objective.
#pragma once

#include <optional>

#include "common/retry.hpp"
#include "common/rng.hpp"
#include "core/health.hpp"
#include "core/reconstructor.hpp"
#include "nn/sequential.hpp"

namespace fsda::core {

struct CganOptions {
  /// Noise dimension; 0 = auto (var_dim / 3, clamped to [4, 30] -- the
  /// paper uses 30 for 442 features and 15 for 116).
  std::size_t noise_dim = 0;
  /// Hidden widths for both networks; empty = auto (256 for wide telemetry,
  /// 128 otherwise, matching Section V-C3).
  std::vector<std::size_t> hidden;
  std::size_t epochs = 60;
  std::size_t batch_size = 64;
  double learning_rate = 2e-4;
  double adam_beta1 = 0.5;
  double weight_decay = 1e-6;
  double dropout = 0.3;
  /// Condition the discriminator on the one-hot label (eq. 7).  false
  /// reproduces the FS+NoCond ablation.
  bool conditional = true;
  /// Weight of the auxiliary L2 reconstruction term in the generator loss.
  double recon_weight = 1.0;
  /// Probability of marginal-preserving corruption per generator-input cell
  /// during training (denoising robustness to undetected drift; see
  /// core/corruption.hpp).
  double input_corruption_p = 0.1;
  /// Divergence recovery (core/health.hpp): on a NaN/Inf or sustained-
  /// explosion epoch the trainer rolls both networks back to the last
  /// healthy snapshot, decays the learning rate by retry.backoff_factor,
  /// reseeds, and retries up to retry.max_attempts total attempts.
  common::RetryPolicy retry;
  DivergenceMonitorOptions divergence;
  /// Epochs between healthy-parameter snapshots (rollback granularity).
  std::size_t snapshot_every = 10;
  /// Skip accumulating discriminator weight gradients during the generator
  /// step: only the gradient w.r.t. D's *input* is consumed there, and the
  /// weight gradients were discarded (zeroed before the next D step) anyway.
  /// Spares one dW GEMM + bias reduction per discriminator layer per step
  /// with a bit-identical training trajectory; false reproduces the old
  /// schedule exactly (parity test hook).
  bool skip_d_grads_in_g_step = true;
  /// Epoch cap for a warm-started fit (warm_start_from); 0 = auto
  /// (max(epochs / 4, min(epochs, 8))).  `epochs` caps cold fits and
  /// attempts retried after divergence.
  std::size_t warm_epochs = 0;
  /// Every fit -- warm, cold or retried -- stops early once the generator's
  /// holdout reconstruction MSE has not improved by plateau_min_delta for
  /// plateau_patience consecutive epochs.
  std::size_t plateau_patience = 4;
  double plateau_min_delta = 1e-4;

  static CganOptions quick();  ///< single-core benchmark budget
  static CganOptions paper();  ///< Section V-C3 budget (500 epochs)
};

/// Per-epoch training diagnostics.
struct GanEpochStats {
  double d_loss = 0.0;
  double g_adv_loss = 0.0;
  double g_recon_loss = 0.0;
};

class ConditionalGAN : public Reconstructor {
 public:
  ConditionalGAN(std::size_t inv_dim, std::size_t var_dim, CganOptions options,
                 std::uint64_t seed);

  void fit(const la::Matrix& x_inv, const la::Matrix& x_var,
           const std::vector<std::int64_t>& labels,
           std::size_t num_classes) override;

  la::Matrix reconstruct(la::ConstMatrixView x_inv) override;

  [[nodiscard]] std::string name() const override {
    return options_.conditional ? "CGAN" : "NoCondGAN";
  }

  [[nodiscard]] const std::vector<GanEpochStats>& history() const {
    return history_;
  }
  [[nodiscard]] std::size_t noise_dim() const { return noise_dim_; }

  /// The generator over [x_inv | z], noise_dim, and the GAN's own stream.
  [[nodiscard]] ServingStage serving_stage() override;

  /// The trained generator network, or nullptr before fit().  The pointer
  /// is invalidated by the next fit().
  [[nodiscard]] nn::Sequential* generator_network() {
    return fitted_ ? generator_.get() : nullptr;
  }
  [[nodiscard]] std::size_t inv_dim() const { return inv_dim_; }
  [[nodiscard]] std::size_t var_dim() const { return var_dim_; }

  /// Divergence-recovery diagnostics of the last fit().
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

  /// Captures `previous`'s trained generator + discriminator weights so the
  /// next fit() resumes from them with the reduced warm_epochs cap (the
  /// plateau stop applies to every fit).  Requires `previous` to be a fitted
  /// ConditionalGAN with identical dimensions, conditioning, and hidden
  /// widths; returns false (next fit stays cold) otherwise.  A warm request
  /// changes only the starting weights and the epoch cap: warm and cold fits
  /// draw from their rng streams in the same order.
  bool warm_start_from(const Reconstructor& previous) override;
  [[nodiscard]] bool warm_started() const override { return warm_started_; }

 private:
  /// Fills `z` with rows x noise_dim N(0,1) draws, row-major, from the
  /// GAN's own stream (or from `rng`).
  void sample_noise_into(std::size_t rows, la::Matrix& z);
  void sample_noise_into(std::size_t rows, la::Matrix& z,
                         common::Rng& rng) const;

  [[nodiscard]] la::Matrix one_hot(const std::vector<std::int64_t>& labels,
                                   std::size_t num_classes) const;

  std::size_t inv_dim_;
  std::size_t var_dim_;
  CganOptions options_;
  std::size_t noise_dim_;
  common::Rng rng_;
  std::unique_ptr<nn::Sequential> generator_;
  std::unique_ptr<nn::Sequential> discriminator_;
  std::vector<GanEpochStats> history_;
  TrainHealth train_health_;
  bool fitted_ = false;

  // Warm-start request (one-shot, consumed by the next fit): parameter
  // snapshots of the previous generation's networks, in parameters() order.
  std::vector<la::Matrix> warm_g_;
  std::vector<la::Matrix> warm_d_;
  bool warm_started_ = false;
};

}  // namespace fsda::core
