// fsda::nn -- loss functions.
//
// Each loss returns the scalar batch-mean loss and the gradient w.r.t. its
// input (already divided by the batch size), ready to feed into
// Layer::backward.
//
// The `_into` variants write the gradient into a caller-owned matrix
// (resized in place, so a reused buffer makes the loss allocation-free) and
// return the scalar; the value-returning forms wrap them.
#pragma once

#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "la/view.hpp"

namespace fsda::nn {

/// Loss value plus gradient w.r.t. the loss input.
struct LossResult {
  double value = 0.0;
  la::Matrix grad;
};

/// Softmax cross-entropy on raw logits against integer class labels.
LossResult softmax_cross_entropy(const la::Matrix& logits,
                                 const std::vector<std::int64_t>& labels);
double softmax_cross_entropy_into(const la::Matrix& logits,
                                  const std::vector<std::int64_t>& labels,
                                  la::Matrix& grad);

/// Binary cross-entropy on raw logits (one column) against 0/1 targets.
/// Optionally per-sample weights (empty = uniform).
LossResult bce_with_logits(const la::Matrix& logits,
                           const std::vector<double>& targets,
                           const std::vector<double>& weights = {});
double bce_with_logits_into(const la::Matrix& logits,
                            const std::vector<double>& targets,
                            const std::vector<double>& weights,
                            la::Matrix& grad);

/// Binary cross-entropy on probabilities in (0,1) -- used on the
/// discriminator's sigmoid output in the GAN losses (paper eq. 8-9).
LossResult bce_on_probs(const la::Matrix& probs,
                        const std::vector<double>& targets);
double bce_on_probs_into(const la::Matrix& probs,
                         const std::vector<double>& targets, la::Matrix& grad);

/// Mean squared error against a target matrix.
LossResult mse(const la::Matrix& prediction, const la::Matrix& target);
double mse_into(const la::Matrix& prediction, const la::Matrix& target,
                la::Matrix& grad);
/// The same value as mse_into, without the gradient; either side may be a
/// strided view.
double mse_value(la::ConstMatrixView prediction, la::ConstMatrixView target);

/// Gaussian VAE regularizer: KL(N(mu, sigma^2) || N(0, I)) batch mean, with
/// gradients w.r.t. mu and log_var.
struct KlResult {
  double value = 0.0;
  la::Matrix grad_mu;
  la::Matrix grad_log_var;
};
KlResult gaussian_kl(const la::Matrix& mu, const la::Matrix& log_var);
/// In-place form reusing the matrices already held by `result`.
void gaussian_kl_into(const la::Matrix& mu, const la::Matrix& log_var,
                      KlResult& result);

}  // namespace fsda::nn
