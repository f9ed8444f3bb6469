#include "nn/dropout.hpp"

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

Dropout::Dropout(double p, common::Rng rng) : p_(p), rng_(rng) {
  FSDA_CHECK_MSG(p >= 0.0 && p < 1.0, "dropout p out of [0,1): " << p);
}

const la::Matrix& Dropout::forward(const la::Matrix& input, bool training,
                                   Workspace& ws) {
  if (!training || p_ == 0.0) {
    mask_ = nullptr;
    return input;  // identity at inference: pass the caller's buffer through
  }
  const double scale = 1.0 / (1.0 - p_);
  la::Matrix& mask = ws.buffer(this, 2, input.rows(), input.cols());
  la::Matrix& out = ws.buffer(this, 0, input.rows(), input.cols());
  const std::size_t n = mask.size();
  double* __restrict m = mask.data().data();
  const double* __restrict in = input.data().data();
  double* __restrict o = out.data().data();
  // Two passes: the serial stream fills the mask with the same uniforms, in
  // the same element order, that rng_.bernoulli(p_) would draw; the select
  // then compiles branch-free (a p = 0.3 keep/drop branch mispredicts often).
  for (std::size_t i = 0; i < n; ++i) m[i] = rng_.uniform();
  const double p = p_;
  for (std::size_t i = 0; i < n; ++i) {
    const double keep = m[i] < p ? 0.0 : scale;
    m[i] = keep;
    o[i] = in[i] * keep;
  }
  mask_ = &mask;
  return out;
}

const la::Matrix& Dropout::backward(const la::Matrix& grad_output,
                                    Workspace& ws) {
  if (mask_ == nullptr) return grad_output;
  la::Matrix& grad =
      ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  la::hadamard_into(grad_output, *mask_, grad);
  return grad;
}

}  // namespace fsda::nn
