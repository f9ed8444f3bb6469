#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

namespace {
void check_grad_shape(const la::Matrix& grad, const la::Matrix& ref) {
  FSDA_CHECK(grad.rows() == ref.rows() && grad.cols() == ref.cols());
}

la::ConstMatrixView rows_of(const la::Matrix& m, std::size_t r0,
                            std::size_t r1) {
  return la::ConstMatrixView(m).row_block(r0, r1 - r0);
}

la::MatrixView rows_of(la::Matrix& m, std::size_t r0, std::size_t r1) {
  return la::MatrixView(m).row_block(r0, r1 - r0);
}

/// Max-shifted softmax of one row; `o` may alias `in`.
void softmax_row(const double* in, double* o, std::size_t n) {
  const double mx = *std::max_element(in, in + n);
  double total = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    o[c] = std::exp(in[c] - mx);
    total += o[c];
  }
  FSDA_CHECK_MSG(total > 0.0, "softmax row summed to zero");
  for (std::size_t c = 0; c < n; ++c) o[c] /= total;
}
}  // namespace

const la::Matrix& ReLU::stage_forward(const la::Matrix& input,
                                      bool /*training*/, Workspace& ws,
                                      Pass& pass) {
  cached_input_ = &input;
  out_ = &ws.buffer(this, 0, input.rows(), input.cols());
  pass.row_stage<ReLU, &ReLU::forward_rows>(this);
  return *out_;
}

void ReLU::forward_rows(std::size_t r0, std::size_t r1) {
  la::relu_into(rows_of(*cached_input_, r0, r1), rows_of(*out_, r0, r1));
}

const la::Matrix& ReLU::stage_backward(const la::Matrix& grad_output,
                                       Workspace& ws, Pass& pass) {
  FSDA_CHECK_MSG(cached_input_ != nullptr, "ReLU backward before forward");
  check_grad_shape(grad_output, *cached_input_);
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  pass.row_stage<ReLU, &ReLU::backward_rows>(this);
  return *grad_in_;
}

void ReLU::backward_rows(std::size_t r0, std::size_t r1) {
  la::relu_backward_into(rows_of(*grad_out_, r0, r1),
                         rows_of(*cached_input_, r0, r1),
                         rows_of(*grad_in_, r0, r1));
}

LeakyReLU::LeakyReLU(double alpha) : alpha_(alpha) {
  FSDA_CHECK_MSG(alpha >= 0.0 && alpha < 1.0, "LeakyReLU alpha " << alpha);
}

const la::Matrix& LeakyReLU::stage_forward(const la::Matrix& input,
                                           bool /*training*/, Workspace& ws,
                                           Pass& pass) {
  cached_input_ = &input;
  out_ = &ws.buffer(this, 0, input.rows(), input.cols());
  pass.row_stage<LeakyReLU, &LeakyReLU::forward_rows>(this);
  return *out_;
}

void LeakyReLU::forward_rows(std::size_t r0, std::size_t r1) {
  la::leaky_relu_into(rows_of(*cached_input_, r0, r1), rows_of(*out_, r0, r1),
                      alpha_);
}

const la::Matrix& LeakyReLU::stage_backward(const la::Matrix& grad_output,
                                            Workspace& ws, Pass& pass) {
  FSDA_CHECK_MSG(cached_input_ != nullptr,
                 "LeakyReLU backward before forward");
  check_grad_shape(grad_output, *cached_input_);
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  pass.row_stage<LeakyReLU, &LeakyReLU::backward_rows>(this);
  return *grad_in_;
}

void LeakyReLU::backward_rows(std::size_t r0, std::size_t r1) {
  la::leaky_relu_backward_into(rows_of(*grad_out_, r0, r1),
                               rows_of(*cached_input_, r0, r1),
                               rows_of(*grad_in_, r0, r1), alpha_);
}

const la::Matrix& Tanh::stage_forward(const la::Matrix& input,
                                      bool /*training*/, Workspace& ws,
                                      Pass& pass) {
  cached_input_ = &input;
  cached_output_ = &ws.buffer(this, 0, input.rows(), input.cols());
  pass.row_stage<Tanh, &Tanh::forward_rows>(this);
  return *cached_output_;
}

void Tanh::forward_rows(std::size_t r0, std::size_t r1) {
  la::apply_into(rows_of(*cached_input_, r0, r1),
                 rows_of(*cached_output_, r0, r1),
                 [](double x) { return std::tanh(x); });
}

const la::Matrix& Tanh::stage_backward(const la::Matrix& grad_output,
                                       Workspace& ws, Pass& pass) {
  FSDA_CHECK_MSG(cached_output_ != nullptr, "Tanh backward before forward");
  check_grad_shape(grad_output, *cached_output_);
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  pass.row_stage<Tanh, &Tanh::backward_rows>(this);
  return *grad_in_;
}

void Tanh::backward_rows(std::size_t r0, std::size_t r1) {
  la::zip_into(rows_of(*grad_out_, r0, r1), rows_of(*cached_output_, r0, r1),
               rows_of(*grad_in_, r0, r1),
               [](double g, double y) { return g * (1.0 - y * y); });
}

const la::Matrix& Sigmoid::stage_forward(const la::Matrix& input,
                                         bool /*training*/, Workspace& ws,
                                         Pass& pass) {
  cached_input_ = &input;
  cached_output_ = &ws.buffer(this, 0, input.rows(), input.cols());
  pass.row_stage<Sigmoid, &Sigmoid::forward_rows>(this);
  return *cached_output_;
}

void Sigmoid::forward_rows(std::size_t r0, std::size_t r1) {
  la::apply_into(rows_of(*cached_input_, r0, r1),
                 rows_of(*cached_output_, r0, r1), [](double x) {
                   // Split by sign for numerical stability at large |x|.
                   if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
                   const double e = std::exp(x);
                   return e / (1.0 + e);
                 });
}

const la::Matrix& Sigmoid::stage_backward(const la::Matrix& grad_output,
                                          Workspace& ws, Pass& pass) {
  FSDA_CHECK_MSG(cached_output_ != nullptr,
                 "Sigmoid backward before forward");
  check_grad_shape(grad_output, *cached_output_);
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  pass.row_stage<Sigmoid, &Sigmoid::backward_rows>(this);
  return *grad_in_;
}

void Sigmoid::backward_rows(std::size_t r0, std::size_t r1) {
  la::zip_into(rows_of(*grad_out_, r0, r1), rows_of(*cached_output_, r0, r1),
               rows_of(*grad_in_, r0, r1),
               [](double g, double y) { return g * y * (1.0 - y); });
}

void softmax_rows_into(const la::Matrix& logits, la::Matrix& out) {
  out.resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    softmax_row(logits.row(r).data(), out.row(r).data(), logits.cols());
  }
}

la::Matrix softmax_rows(const la::Matrix& logits) {
  la::Matrix out;
  softmax_rows_into(logits, out);
  return out;
}

const la::Matrix& Softmax::stage_forward(const la::Matrix& input,
                                         bool /*training*/, Workspace& ws,
                                         Pass& pass) {
  cached_input_ = &input;
  cached_output_ = &ws.buffer(this, 0, input.rows(), input.cols());
  pass.row_stage<Softmax, &Softmax::forward_rows>(this);
  return *cached_output_;
}

void Softmax::forward_rows(std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    softmax_row(cached_input_->row(r).data(), cached_output_->row(r).data(),
                cached_input_->cols());
  }
}

const la::Matrix& Softmax::stage_backward(const la::Matrix& grad_output,
                                          Workspace& ws, Pass& pass) {
  FSDA_CHECK_MSG(cached_output_ != nullptr,
                 "Softmax backward before forward");
  check_grad_shape(grad_output, *cached_output_);
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, grad_output.rows(), grad_output.cols());
  pass.row_stage<Softmax, &Softmax::backward_rows>(this);
  return *grad_in_;
}

void Softmax::backward_rows(std::size_t r0, std::size_t r1) {
  // dL/dx_i = s_i * (g_i - sum_j g_j s_j)
  for (std::size_t r = r0; r < r1; ++r) {
    auto s = cached_output_->row(r);
    auto g = grad_out_->row(r);
    double dot = 0.0;
    for (std::size_t c = 0; c < s.size(); ++c) dot += g[c] * s[c];
    auto out = grad_in_->row(r);
    for (std::size_t c = 0; c < s.size(); ++c) out[c] = s[c] * (g[c] - dot);
  }
}

}  // namespace fsda::nn
