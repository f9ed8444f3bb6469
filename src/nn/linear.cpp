#include "nn/linear.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "la/gemm.hpp"
#include "la/kernels.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               common::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(la::Matrix::randn(
          in_features, out_features, rng,
          std::sqrt(2.0 / static_cast<double>(in_features + out_features)))),
      bias_(la::Matrix(1, out_features, 0.0)) {
  FSDA_CHECK_MSG(in_features > 0 && out_features > 0,
                 "Linear with zero-sized dimension");
}

const la::Matrix& Linear::stage_forward(const la::Matrix& input,
                                        bool /*training*/, Workspace& ws,
                                        Pass& pass) {
  FSDA_CHECK_MSG(input.cols() == in_features_,
                 "Linear forward: got " << input.cols() << " features, expect "
                                        << in_features_);
  cached_input_ = &input;
  out_ = &ws.buffer(this, 0, input.rows(), out_features_);
  // Weight panels are packed once per parameter version (i.e. once per
  // optimizer step) and shared by every forward of that step.
  pack_ = &ws.packed(this, 0, weight_.value, weight_.version);
  pass.row_stage<Linear, &Linear::forward_rows>(this);
  return *out_;
}

void Linear::forward_rows(std::size_t r0, std::size_t r1) {
  la::GemmEpilogue epi;
  epi.bias = bias_.value.row(0).data();
  la::gemm_packed(la::ConstMatrixView(*cached_input_).row_block(r0, r1 - r0),
                  *pack_, la::MatrixView(*out_).row_block(r0, r1 - r0), epi);
}

const la::Matrix& Linear::stage_backward(const la::Matrix& grad_output,
                                         Workspace& ws, Pass& pass) {
  FSDA_CHECK_MSG(cached_input_ != nullptr, "Linear backward before forward");
  FSDA_CHECK_MSG(grad_output.rows() == cached_input_->rows() &&
                     grad_output.cols() == out_features_,
                 "Linear backward shape mismatch");
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, grad_output.rows(), in_features_);
  // dX never depends on dW/db, so when the workspace has parameter
  // gradients disabled (GAN generator steps backpropagating through a
  // frozen discriminator) the dW GEMM and bias reduction are skipped
  // entirely -- the dX below is bit-identical either way.
  if (ws.param_grads_enabled()) {
    pass.param_stage<Linear, &Linear::param_grad_units>(
        this, in_features_ + 1, grad_output.rows() * out_features_);
  }
  // Likewise dW/db never depend on dX: a first layer whose dX the caller
  // discards skips the transposed pack and the dX GEMM.
  if (!ws.input_grad_enabled()) return *grad_in_;
  // dX = dY * Wᵀ through the forward micro-kernels against a transposed
  // pack; slot 1 keeps it distinct from the forward pack of slot 0.
  pack_t_ = &ws.packed(this, 1, weight_.value, weight_.version,
                       /*transposed=*/true);
  pass.row_stage<Linear, &Linear::grad_input_rows>(this);
  return *grad_in_;
}

void Linear::grad_input_rows(std::size_t r0, std::size_t r1) {
  la::gemm_packed(la::ConstMatrixView(*grad_out_).row_block(r0, r1 - r0),
                  *pack_t_, la::MatrixView(*grad_in_).row_block(r0, r1 - r0));
}

void Linear::param_grad_units(std::size_t u0, std::size_t u1) {
  // Split over dW rows, never over batch rows: every dW and bias element
  // keeps one ascending accumulation chain over the batch.
  const std::size_t k1 = std::min(u1, in_features_);
  if (u0 < k1) {
    la::gemm_grad_weights(
        la::ConstMatrixView(*cached_input_).col_block(u0, k1 - u0),
        *grad_out_, la::MatrixView(weight_.grad).row_block(u0, k1 - u0),
        /*accumulate=*/true);
  }
  if (u1 > in_features_) {
    la::sum_rows_into(*grad_out_, bias_.grad, /*accumulate=*/true);
  }
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

}  // namespace fsda::nn
