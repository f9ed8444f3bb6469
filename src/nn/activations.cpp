#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "la/gemm.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

namespace {
void check_grad_shape(const la::Matrix& grad, const la::Matrix& ref) {
  FSDA_CHECK(grad.rows() == ref.rows() && grad.cols() == ref.cols());
}
}  // namespace

const la::Matrix& ReLU::forward(const la::Matrix& input, bool /*training*/,
                                Workspace& ws) {
  cached_input_ = &input;
  la::Matrix& out = ws.buffer(this, 0, input.rows(), input.cols());
  la::relu_into(input, out);
  return out;
}

const la::Matrix& ReLU::backward(const la::Matrix& grad_output,
                                 Workspace& ws) {
  FSDA_CHECK_MSG(cached_input_ != nullptr, "ReLU backward before forward");
  check_grad_shape(grad_output, *cached_input_);
  la::Matrix& grad =
      ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  la::relu_backward_into(grad_output, *cached_input_, grad);
  return grad;
}

LeakyReLU::LeakyReLU(double alpha) : alpha_(alpha) {
  FSDA_CHECK_MSG(alpha >= 0.0 && alpha < 1.0, "LeakyReLU alpha " << alpha);
}

const la::Matrix& LeakyReLU::forward(const la::Matrix& input,
                                     bool /*training*/, Workspace& ws) {
  cached_input_ = &input;
  la::Matrix& out = ws.buffer(this, 0, input.rows(), input.cols());
  la::leaky_relu_into(input, out, alpha_);
  return out;
}

const la::Matrix& LeakyReLU::backward(const la::Matrix& grad_output,
                                      Workspace& ws) {
  FSDA_CHECK_MSG(cached_input_ != nullptr,
                 "LeakyReLU backward before forward");
  check_grad_shape(grad_output, *cached_input_);
  la::Matrix& grad =
      ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  la::leaky_relu_backward_into(grad_output, *cached_input_, grad, alpha_);
  return grad;
}

const la::Matrix& Tanh::forward(const la::Matrix& input, bool /*training*/,
                                Workspace& ws) {
  la::Matrix& out = ws.buffer(this, 0, input.rows(), input.cols());
  // std::tanh dominates this layer; split rows across the pool above the
  // threshold (every element is computed by the same call either way).
  const auto rows = [&](std::size_t r0, std::size_t r1) {
    la::apply_into(la::ConstMatrixView(input).row_block(r0, r1 - r0),
                   la::MatrixView(out).row_block(r0, r1 - r0),
                   [](double x) { return std::tanh(x); });
  };
  if (input.size() >= la::kParallelTanhElements && input.rows() >= 8) {
    common::parallel_for_chunked(input.rows(), rows);
  } else {
    rows(0, input.rows());
  }
  cached_output_ = &out;
  return out;
}

const la::Matrix& Tanh::backward(const la::Matrix& grad_output,
                                 Workspace& ws) {
  FSDA_CHECK_MSG(cached_output_ != nullptr, "Tanh backward before forward");
  check_grad_shape(grad_output, *cached_output_);
  la::Matrix& grad =
      ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  la::zip_into(grad_output, *cached_output_, grad,
               [](double g, double y) { return g * (1.0 - y * y); });
  return grad;
}

const la::Matrix& Sigmoid::forward(const la::Matrix& input, bool /*training*/,
                                   Workspace& ws) {
  la::Matrix& out = ws.buffer(this, 0, input.rows(), input.cols());
  la::apply_into(input, out, [](double x) {
    // Split by sign for numerical stability at large |x|.
    if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
    const double e = std::exp(x);
    return e / (1.0 + e);
  });
  cached_output_ = &out;
  return out;
}

const la::Matrix& Sigmoid::backward(const la::Matrix& grad_output,
                                    Workspace& ws) {
  FSDA_CHECK_MSG(cached_output_ != nullptr,
                 "Sigmoid backward before forward");
  check_grad_shape(grad_output, *cached_output_);
  la::Matrix& grad =
      ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  la::zip_into(grad_output, *cached_output_, grad,
               [](double g, double y) { return g * y * (1.0 - y); });
  return grad;
}

void softmax_rows_into(const la::Matrix& logits, la::Matrix& out) {
  out.resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    auto in = logits.row(r);
    auto o = out.row(r);
    const double mx = *std::max_element(in.begin(), in.end());
    double total = 0.0;
    for (std::size_t c = 0; c < in.size(); ++c) {
      o[c] = std::exp(in[c] - mx);
      total += o[c];
    }
    FSDA_CHECK_MSG(total > 0.0, "softmax row summed to zero");
    for (auto& v : o) v /= total;
  }
}

la::Matrix softmax_rows(const la::Matrix& logits) {
  la::Matrix out;
  softmax_rows_into(logits, out);
  return out;
}

const la::Matrix& Softmax::forward(const la::Matrix& input, bool /*training*/,
                                   Workspace& ws) {
  la::Matrix& out = ws.buffer(this, 0, input.rows(), input.cols());
  softmax_rows_into(input, out);
  cached_output_ = &out;
  return out;
}

const la::Matrix& Softmax::backward(const la::Matrix& grad_output,
                                    Workspace& ws) {
  FSDA_CHECK_MSG(cached_output_ != nullptr,
                 "Softmax backward before forward");
  check_grad_shape(grad_output, *cached_output_);
  // dL/dx_i = s_i * (g_i - sum_j g_j s_j)
  la::Matrix& grad =
      ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  for (std::size_t r = 0; r < grad.rows(); ++r) {
    auto s = cached_output_->row(r);
    auto g = grad_output.row(r);
    double dot = 0.0;
    for (std::size_t c = 0; c < s.size(); ++c) dot += g[c] * s[c];
    auto out = grad.row(r);
    for (std::size_t c = 0; c < s.size(); ++c) out[c] = s[c] * (g[c] - dot);
  }
  return grad;
}

}  // namespace fsda::nn
