#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "nn/activations.hpp"

namespace fsda::nn {

double softmax_cross_entropy_into(const la::Matrix& logits,
                                  const std::vector<std::int64_t>& labels,
                                  la::Matrix& grad) {
  const std::size_t n = logits.rows();
  const std::size_t k = logits.cols();
  FSDA_CHECK_MSG(labels.size() == n, "labels/logits row mismatch");
  softmax_rows_into(logits, grad);
  double loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto y = labels[r];
    FSDA_CHECK_MSG(y >= 0 && static_cast<std::size_t>(y) < k,
                   "label " << y << " out of " << k << " classes");
    const double p = std::max(grad(r, static_cast<std::size_t>(y)), 1e-12);
    loss -= std::log(p);
    grad(r, static_cast<std::size_t>(y)) -= 1.0;
  }
  grad *= inv_n;
  return loss * inv_n;
}

LossResult softmax_cross_entropy(const la::Matrix& logits,
                                 const std::vector<std::int64_t>& labels) {
  LossResult result;
  result.value = softmax_cross_entropy_into(logits, labels, result.grad);
  return result;
}

double bce_with_logits_into(const la::Matrix& logits,
                            const std::vector<double>& targets,
                            const std::vector<double>& weights,
                            la::Matrix& grad) {
  const std::size_t n = logits.rows();
  FSDA_CHECK_MSG(logits.cols() == 1, "bce_with_logits expects one column");
  FSDA_CHECK_MSG(targets.size() == n, "targets/logits row mismatch");
  FSDA_CHECK_MSG(weights.empty() || weights.size() == n,
                 "weights size mismatch");
  grad.resize(n, 1);
  double loss = 0.0;
  double weight_sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const double w = weights.empty() ? 1.0 : weights[r];
    weight_sum += w;
    const double z = logits(r, 0);
    const double t = targets[r];
    FSDA_CHECK_MSG(t == 0.0 || t == 1.0, "BCE target must be 0/1, got " << t);
    // log(1 + exp(-|z|)) formulation avoids overflow.
    loss += w * (std::max(z, 0.0) - z * t + std::log1p(std::exp(-std::abs(z))));
    const double sigma = z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                                  : std::exp(z) / (1.0 + std::exp(z));
    grad(r, 0) = w * (sigma - t);
  }
  FSDA_CHECK_MSG(weight_sum > 0.0, "all-zero BCE weights");
  grad *= 1.0 / weight_sum;
  return loss / weight_sum;
}

LossResult bce_with_logits(const la::Matrix& logits,
                           const std::vector<double>& targets,
                           const std::vector<double>& weights) {
  LossResult result;
  result.value = bce_with_logits_into(logits, targets, weights, result.grad);
  return result;
}

double bce_on_probs_into(const la::Matrix& probs,
                         const std::vector<double>& targets, la::Matrix& grad) {
  const std::size_t n = probs.rows();
  FSDA_CHECK_MSG(probs.cols() == 1, "bce_on_probs expects one column");
  FSDA_CHECK_MSG(targets.size() == n, "targets/probs row mismatch");
  grad.resize(n, 1);
  double loss = 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double p = std::clamp(probs(r, 0), 1e-7, 1.0 - 1e-7);
    const double t = targets[r];
    loss -= t * std::log(p) + (1.0 - t) * std::log(1.0 - p);
    grad(r, 0) = inv_n * (p - t) / (p * (1.0 - p));
  }
  return loss * inv_n;
}

LossResult bce_on_probs(const la::Matrix& probs,
                        const std::vector<double>& targets) {
  LossResult result;
  result.value = bce_on_probs_into(probs, targets, result.grad);
  return result;
}

double mse_into(const la::Matrix& prediction, const la::Matrix& target,
                la::Matrix& grad) {
  FSDA_CHECK_MSG(prediction.rows() == target.rows() &&
                     prediction.cols() == target.cols(),
                 "mse shape mismatch");
  grad.resize(prediction.rows(), prediction.cols());
  const double scale =
      2.0 / static_cast<double>(prediction.rows() * prediction.cols());
  double loss = 0.0;
  const auto p = prediction.data();
  const auto t = target.data();
  auto g = grad.data();
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double d = p[i] - t[i];
    loss += d * d;
    g[i] = scale * d;
  }
  return loss / static_cast<double>(prediction.rows() * prediction.cols());
}

double mse_value(la::ConstMatrixView prediction, la::ConstMatrixView target) {
  FSDA_CHECK_MSG(prediction.rows() == target.rows() &&
                     prediction.cols() == target.cols(),
                 "mse shape mismatch");
  // Summed in row-major order, as mse_into sums, so the two agree bit for
  // bit.
  double loss = 0.0;
  for (std::size_t r = 0; r < prediction.rows(); ++r) {
    const double* p = prediction.row_data(r);
    const double* t = target.row_data(r);
    for (std::size_t c = 0; c < prediction.cols(); ++c) {
      const double d = p[c] - t[c];
      loss += d * d;
    }
  }
  return loss / static_cast<double>(prediction.rows() * prediction.cols());
}

LossResult mse(const la::Matrix& prediction, const la::Matrix& target) {
  LossResult result;
  result.value = mse_into(prediction, target, result.grad);
  return result;
}

void gaussian_kl_into(const la::Matrix& mu, const la::Matrix& log_var,
                      KlResult& result) {
  FSDA_CHECK(mu.rows() == log_var.rows() && mu.cols() == log_var.cols());
  result.grad_mu.resize(mu.rows(), mu.cols());
  result.grad_log_var.resize(mu.rows(), mu.cols());
  const double inv_n = 1.0 / static_cast<double>(mu.rows());
  double kl = 0.0;
  const auto m = mu.data();
  const auto lv = log_var.data();
  auto gm = result.grad_mu.data();
  auto glv = result.grad_log_var.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    const double e = std::exp(lv[i]);
    kl += 0.5 * (e + m[i] * m[i] - 1.0 - lv[i]);
    gm[i] = m[i] * inv_n;
    glv[i] = 0.5 * (e - 1.0) * inv_n;
  }
  result.value = kl * inv_n;
}

KlResult gaussian_kl(const la::Matrix& mu, const la::Matrix& log_var) {
  KlResult result;
  gaussian_kl_into(mu, log_var, result);
  return result;
}

}  // namespace fsda::nn
