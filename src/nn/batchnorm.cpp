#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

BatchNorm1d::BatchNorm1d(std::size_t features, double momentum, double eps)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      gamma_(la::Matrix(1, features, 1.0)),
      beta_(la::Matrix(1, features, 0.0)),
      running_mean_(1, features, 0.0),
      running_var_(1, features, 1.0) {
  FSDA_CHECK(features > 0);
  FSDA_CHECK(momentum >= 0.0 && momentum < 1.0);
}

const la::Matrix& BatchNorm1d::forward(const la::Matrix& input, bool training,
                                       Workspace& ws) {
  FSDA_CHECK_MSG(input.cols() == features_, "BatchNorm1d width mismatch");
  const std::size_t n = input.rows();
  mean_.resize(1, features_);
  var_.resize(1, features_);
  last_forward_used_batch_stats_ = training && n > 1;
  const std::size_t f = features_;
  if (last_forward_used_batch_stats_) {
    // Per column, rows ascending (the reduction order the trained models
    // are pinned to), over restrict-qualified row pointers so the column
    // loops vectorize.
    double* __restrict mu = mean_.row(0).data();
    double* __restrict var = var_.row(0).data();
    std::fill_n(mu, f, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      const double* __restrict in = input.row(r).data();
      for (std::size_t c = 0; c < f; ++c) mu[c] += in[c];
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t c = 0; c < f; ++c) mu[c] *= inv_n;
    std::fill_n(var, f, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      const double* __restrict in = input.row(r).data();
      for (std::size_t c = 0; c < f; ++c) {
        const double d = in[c] - mu[c];
        var[c] += d * d;
      }
    }
    for (std::size_t c = 0; c < f; ++c) var[c] *= inv_n;  // biased, as in BN
    // update running statistics
    for (std::size_t c = 0; c < features_; ++c) {
      if (seen_batch_) {
        running_mean_(0, c) =
            momentum_ * running_mean_(0, c) + (1.0 - momentum_) * mean_(0, c);
        running_var_(0, c) =
            momentum_ * running_var_(0, c) + (1.0 - momentum_) * var_(0, c);
      } else {
        running_mean_(0, c) = mean_(0, c);
        running_var_(0, c) = var_(0, c);
      }
    }
    seen_batch_ = true;
  } else {
    la::copy_into(running_mean_, mean_);
    la::copy_into(running_var_, var_);
  }
  cached_inv_std_.resize(1, features_);
  for (std::size_t c = 0; c < features_; ++c) {
    cached_inv_std_(0, c) = 1.0 / std::sqrt(var_(0, c) + eps_);
  }
  // Slot 4: the normalized input backward needs (slots 1-3 are backward's).
  la::Matrix& norm_buf = ws.buffer(this, 4, n, features_);
  cached_norm_ = &norm_buf;
  la::Matrix& out = ws.buffer(this, 0, n, features_);
  const double* __restrict mu = mean_.row(0).data();
  const double* __restrict inv_std = cached_inv_std_.row(0).data();
  const double* __restrict gamma = gamma_.value.row(0).data();
  const double* __restrict beta = beta_.value.row(0).data();
  for (std::size_t r = 0; r < n; ++r) {
    const double* __restrict in = input.row(r).data();
    double* __restrict norm = norm_buf.row(r).data();
    double* __restrict o = out.row(r).data();
    for (std::size_t c = 0; c < f; ++c) {
      const double xn = (in[c] - mu[c]) * inv_std[c];
      norm[c] = xn;
      o[c] = gamma[c] * xn + beta[c];
    }
  }
  return out;
}

const la::Matrix& BatchNorm1d::backward(const la::Matrix& grad_output,
                                        Workspace& ws) {
  const std::size_t n = grad_output.rows();
  FSDA_CHECK_MSG(cached_norm_ != nullptr,
                 "BatchNorm1d backward before forward");
  FSDA_CHECK(grad_output.cols() == features_ && n == cached_norm_->rows());
  // Accumulate parameter gradients.
  la::Matrix& sum_g = ws.buffer(this, 2, 1, features_);
  la::Matrix& sum_g_xn = ws.buffer(this, 3, 1, features_);
  la::sum_rows_into(grad_output, sum_g);
  sum_g_xn.fill(0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const double* g = grad_output.row(r).data();
    const double* xn = cached_norm_->row(r).data();
    double* acc = sum_g_xn.row(0).data();
    for (std::size_t c = 0; c < features_; ++c) acc[c] += g[c] * xn[c];
  }
  gamma_.grad += sum_g_xn;
  beta_.grad += sum_g;
  la::Matrix& grad_input = ws.buffer(this, 1, n, features_);
  const double* gamma = gamma_.value.row(0).data();
  const double* inv_std = cached_inv_std_.row(0).data();
  if (!last_forward_used_batch_stats_) {
    // Running statistics were constants in the forward pass:
    // dx = gamma * inv_std * g.
    for (std::size_t r = 0; r < n; ++r) {
      const double* g = grad_output.row(r).data();
      double* gi = grad_input.row(r).data();
      for (std::size_t c = 0; c < features_; ++c) {
        gi[c] = gamma[c] * inv_std[c] * g[c];
      }
    }
    return grad_input;
  }
  // Standard batch-norm input gradient:
  // dx = gamma * inv_std / n * (n*g - sum(g) - xn * sum(g*xn))
  const double inv_n = 1.0 / static_cast<double>(std::max<std::size_t>(n, 1));
  const double* sg = sum_g.row(0).data();
  const double* sgxn = sum_g_xn.row(0).data();
  for (std::size_t r = 0; r < n; ++r) {
    const double* g = grad_output.row(r).data();
    const double* xn = cached_norm_->row(r).data();
    double* gi = grad_input.row(r).data();
    for (std::size_t c = 0; c < features_; ++c) {
      gi[c] = gamma[c] * inv_std[c] * inv_n *
              (static_cast<double>(n) * g[c] - sg[c] - xn[c] * sgxn[c]);
    }
  }
  return grad_input;
}

void BatchNorm1d::apply_running_update(const la::Matrix& mean,
                                       const la::Matrix& var) {
  FSDA_CHECK_MSG(mean.cols() == features_ && var.cols() == features_ &&
                     mean.rows() == 1 && var.rows() == 1,
                 "BatchNorm1d::apply_running_update shape mismatch");
  for (std::size_t c = 0; c < features_; ++c) {
    if (seen_batch_) {
      running_mean_(0, c) =
          momentum_ * running_mean_(0, c) + (1.0 - momentum_) * mean(0, c);
      running_var_(0, c) =
          momentum_ * running_var_(0, c) + (1.0 - momentum_) * var(0, c);
    } else {
      running_mean_(0, c) = mean(0, c);
      running_var_(0, c) = var(0, c);
    }
  }
  seen_batch_ = true;
}

std::vector<Parameter*> BatchNorm1d::parameters() {
  return {&gamma_, &beta_};
}

}  // namespace fsda::nn
