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

const la::Matrix& BatchNorm1d::stage_forward(const la::Matrix& input,
                                             bool training, Workspace& ws,
                                             Pass& pass) {
  FSDA_CHECK_MSG(input.cols() == features_, "BatchNorm1d width mismatch");
  const std::size_t n = input.rows();
  mean_.resize(1, features_);
  var_.resize(1, features_);
  last_forward_used_batch_stats_ = training && n > 1;
  const std::size_t f = features_;
  if (last_forward_used_batch_stats_) {
    // The column statistics read every row: end the stretch that writes
    // the input, then reduce on the calling thread.
    pass.barrier();
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
  input_ = &input;
  // Slot 4: the normalized input backward needs (slots 1-3 are backward's).
  cached_norm_ = &ws.buffer(this, 4, n, features_);
  out_ = &ws.buffer(this, 0, n, features_);
  pass.row_stage<BatchNorm1d, &BatchNorm1d::forward_rows>(this);
  return *out_;
}

void BatchNorm1d::forward_rows(std::size_t r0, std::size_t r1) {
  const std::size_t f = features_;
  const double* __restrict mu = mean_.row(0).data();
  const double* __restrict inv_std = cached_inv_std_.row(0).data();
  const double* __restrict gamma = gamma_.value.row(0).data();
  const double* __restrict beta = beta_.value.row(0).data();
  for (std::size_t r = r0; r < r1; ++r) {
    const double* __restrict in = input_->row(r).data();
    double* __restrict norm = cached_norm_->row(r).data();
    double* __restrict o = out_->row(r).data();
    for (std::size_t c = 0; c < f; ++c) {
      const double xn = (in[c] - mu[c]) * inv_std[c];
      norm[c] = xn;
      o[c] = gamma[c] * xn + beta[c];
    }
  }
}

const la::Matrix& BatchNorm1d::stage_backward(const la::Matrix& grad_output,
                                              Workspace& ws, Pass& pass) {
  const std::size_t n = grad_output.rows();
  FSDA_CHECK_MSG(cached_norm_ != nullptr,
                 "BatchNorm1d backward before forward");
  FSDA_CHECK(grad_output.cols() == features_ && n == cached_norm_->rows());
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, n, features_);
  const bool param_grads = ws.param_grads_enabled();
  const bool input_grad = ws.input_grad_enabled();
  if (!param_grads && !input_grad) return *grad_in_;
  // Column sums over the whole incoming gradient: end the stretch that
  // writes it, then reduce on the calling thread.  Both gamma/beta and dX
  // read them.
  pass.barrier();
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
  sum_g_ = &sum_g;
  sum_g_xn_ = &sum_g_xn;
  if (param_grads) {
    pass.param_stage<BatchNorm1d, &BatchNorm1d::param_grad_units>(
        this, 1, 2 * features_);
  }
  if (input_grad) {
    pass.row_stage<BatchNorm1d, &BatchNorm1d::backward_rows>(this);
  }
  return *grad_in_;
}

void BatchNorm1d::param_grad_units(std::size_t /*u0*/, std::size_t /*u1*/) {
  gamma_.grad += *sum_g_xn_;
  beta_.grad += *sum_g_;
}

void BatchNorm1d::backward_rows(std::size_t r0, std::size_t r1) {
  const std::size_t n = grad_out_->rows();
  const double* gamma = gamma_.value.row(0).data();
  const double* inv_std = cached_inv_std_.row(0).data();
  if (!last_forward_used_batch_stats_) {
    // Running statistics were constants in the forward pass:
    // dx = gamma * inv_std * g.
    for (std::size_t r = r0; r < r1; ++r) {
      const double* g = grad_out_->row(r).data();
      double* gi = grad_in_->row(r).data();
      for (std::size_t c = 0; c < features_; ++c) {
        gi[c] = gamma[c] * inv_std[c] * g[c];
      }
    }
    return;
  }
  // Standard batch-norm input gradient:
  // dx = gamma * inv_std / n * (n*g - sum(g) - xn * sum(g*xn))
  const double inv_n = 1.0 / static_cast<double>(std::max<std::size_t>(n, 1));
  const double* sg = sum_g_->row(0).data();
  const double* sgxn = sum_g_xn_->row(0).data();
  for (std::size_t r = r0; r < r1; ++r) {
    const double* g = grad_out_->row(r).data();
    const double* xn = cached_norm_->row(r).data();
    double* gi = grad_in_->row(r).data();
    for (std::size_t c = 0; c < features_; ++c) {
      gi[c] = gamma[c] * inv_std[c] * inv_n *
              (static_cast<double>(n) * g[c] - sg[c] - xn[c] * sgxn[c]);
    }
  }
}

std::vector<Parameter*> BatchNorm1d::parameters() {
  return {&gamma_, &beta_};
}

}  // namespace fsda::nn
