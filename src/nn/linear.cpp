#include "nn/linear.hpp"

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

const la::Matrix& Linear::forward(const la::Matrix& input, bool /*training*/,
                                  Workspace& ws) {
  FSDA_CHECK_MSG(input.cols() == in_features_,
                 "Linear forward: got " << input.cols() << " features, expect "
                                        << in_features_);
  cached_input_ = &input;
  la::Matrix& out = ws.buffer(this, 0, input.rows(), out_features_);
  // Weight panels are packed once per parameter version (i.e. once per
  // optimizer step) and shared by every forward of that step.
  const la::PackedB& pb = ws.packed(this, 0, weight_.value, weight_.version);
  la::GemmEpilogue epi;
  epi.bias = bias_.value.row(0).data();
  la::gemm_packed(input, pb, out, epi);
  return out;
}

const la::Matrix& Linear::backward(const la::Matrix& grad_output,
                                   Workspace& ws) {
  FSDA_CHECK_MSG(cached_input_ != nullptr, "Linear backward before forward");
  FSDA_CHECK_MSG(grad_output.rows() == cached_input_->rows() &&
                     grad_output.cols() == out_features_,
                 "Linear backward shape mismatch");
  la::Matrix& grad_input = ws.buffer(this, 1, grad_output.rows(), in_features_);
  // dX never depends on dW/db, so when the workspace has parameter
  // gradients disabled (GAN generator steps backpropagating through a
  // frozen discriminator) the dW GEMM and bias reduction are skipped
  // entirely -- the dX below is bit-identical either way.
  if (ws.param_grads_enabled()) {
    la::gemm_grad_weights(*cached_input_, grad_output, weight_.grad,
                          /*accumulate=*/true);
    la::sum_rows_into(grad_output, bias_.grad, /*accumulate=*/true);
  }
  // Likewise dW/db never depend on dX: a first layer whose dX the caller
  // discards skips the transposed pack and the dX GEMM.
  if (!ws.input_grad_enabled()) return grad_input;
  // dX = dY * Wᵀ through the forward micro-kernels against a transposed
  // pack; slot 1 keeps it distinct from the forward pack of slot 0.
  const la::PackedB& pt = ws.packed(this, 1, weight_.value, weight_.version,
                                    /*transposed=*/true);
  la::gemm_packed(grad_output, pt, grad_input);
  return grad_input;
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

}  // namespace fsda::nn
