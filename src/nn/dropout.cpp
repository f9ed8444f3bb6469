#include "nn/dropout.hpp"

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

Dropout::Dropout(double p, common::Rng rng) : p_(p), rng_(rng) {
  FSDA_CHECK_MSG(p >= 0.0 && p < 1.0, "dropout p out of [0,1): " << p);
}

const la::Matrix& Dropout::stage_forward(const la::Matrix& input,
                                         bool training, Workspace& ws,
                                         Pass& pass) {
  if (!training || p_ == 0.0) {
    mask_ = nullptr;
    return input;  // identity at inference: pass the caller's buffer through
  }
  input_ = &input;
  mask_ = &ws.buffer(this, 2, input.rows(), input.cols());
  out_ = &ws.buffer(this, 0, input.rows(), input.cols());
  // The mask is drawn on the set-up side of the stretch (the only code
  // that advances rng_), the select runs per row block.
  pass.setup_task<Dropout, &Dropout::draw_mask>(this);
  pass.row_stage<Dropout, &Dropout::forward_rows>(this);
  return *out_;
}

void Dropout::draw_mask() {
  // The serial stream fills the mask with the same uniforms, in the same
  // element order, that rng_.bernoulli(p_) would draw; the select then
  // compiles branch-free (a p = 0.3 keep/drop branch mispredicts often).
  double* __restrict m = mask_->data().data();
  const std::size_t n = mask_->size();
  for (std::size_t i = 0; i < n; ++i) m[i] = rng_.uniform();
}

void Dropout::forward_rows(std::size_t r0, std::size_t r1) {
  const std::size_t cols = mask_->cols();
  const std::size_t i0 = r0 * cols;
  const std::size_t i1 = r1 * cols;
  double* __restrict m = mask_->data().data();
  const double* __restrict in = input_->data().data();
  double* __restrict o = out_->data().data();
  const double p = p_;
  const double scale = 1.0 / (1.0 - p_);
  for (std::size_t i = i0; i < i1; ++i) {
    const double keep = m[i] < p ? 0.0 : scale;
    m[i] = keep;
    o[i] = in[i] * keep;
  }
}

const la::Matrix& Dropout::stage_backward(const la::Matrix& grad_output,
                                          Workspace& ws, Pass& pass) {
  if (mask_ == nullptr) return grad_output;
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  pass.row_stage<Dropout, &Dropout::backward_rows>(this);
  return *grad_in_;
}

void Dropout::backward_rows(std::size_t r0, std::size_t r1) {
  la::hadamard_into(la::ConstMatrixView(*grad_out_).row_block(r0, r1 - r0),
                    la::ConstMatrixView(*mask_).row_block(r0, r1 - r0),
                    la::MatrixView(*grad_in_).row_block(r0, r1 - r0));
}

}  // namespace fsda::nn
