#include "nn/feature_gate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

FeatureGate::FeatureGate(std::size_t features, double temperature)
    : features_(features),
      temperature_(temperature),
      logits_(la::Matrix(1, features, 0.0)) {
  FSDA_CHECK(features > 0);
  FSDA_CHECK_MSG(temperature > 0.0, "non-positive gate temperature");
}

void FeatureGate::gate_values_into(la::Matrix& gate) const {
  gate.resize(1, features_);
  double mx = logits_.value(0, 0);
  for (std::size_t c = 1; c < features_; ++c) {
    mx = std::max(mx, logits_.value(0, c));
  }
  double total = 0.0;
  for (std::size_t c = 0; c < features_; ++c) {
    gate(0, c) = std::exp((logits_.value(0, c) - mx) / temperature_);
    total += gate(0, c);
  }
  // Scale by d so that uniform logits give gate == 1 (identity start).
  const double scale = static_cast<double>(features_) / total;
  for (std::size_t c = 0; c < features_; ++c) gate(0, c) *= scale;
}

la::Matrix FeatureGate::gate_values() const {
  la::Matrix gate;
  gate_values_into(gate);
  return gate;
}

const la::Matrix& FeatureGate::stage_forward(const la::Matrix& input,
                                             bool /*training*/, Workspace& ws,
                                             Pass& pass) {
  FSDA_CHECK_MSG(input.cols() == features_, "FeatureGate width mismatch");
  cached_input_ = &input;
  gate_values_into(cached_gate_);
  out_ = &ws.buffer(this, 0, input.rows(), input.cols());
  pass.row_stage<FeatureGate, &FeatureGate::forward_rows>(this);
  return *out_;
}

void FeatureGate::forward_rows(std::size_t r0, std::size_t r1) {
  const double* gate = cached_gate_.row(0).data();
  for (std::size_t r = r0; r < r1; ++r) {
    const double* in = cached_input_->row(r).data();
    double* o = out_->row(r).data();
    for (std::size_t c = 0; c < features_; ++c) o[c] = in[c] * gate[c];
  }
}

const la::Matrix& FeatureGate::stage_backward(const la::Matrix& grad_output,
                                              Workspace& ws, Pass& pass) {
  FSDA_CHECK_MSG(cached_input_ != nullptr,
                 "FeatureGate backward before forward");
  FSDA_CHECK(grad_output.rows() == cached_input_->rows() &&
             grad_output.cols() == features_);
  grad_out_ = &grad_output;
  grad_in_ = &ws.buffer(this, 1, grad_output.rows(), features_);
  if (ws.param_grads_enabled()) {
    grad_gate_ = &ws.buffer(this, 2, 1, features_);
    pass.param_stage<FeatureGate, &FeatureGate::param_grad_units>(
        this, 1, grad_output.rows() * features_);
  }
  if (ws.input_grad_enabled()) {
    pass.row_stage<FeatureGate, &FeatureGate::backward_rows>(this);
  }
  return *grad_in_;
}

void FeatureGate::param_grad_units(std::size_t /*u0*/, std::size_t /*u1*/) {
  // dL/d gate_c = sum_r grad(r,c) * x(r,c)
  la::Matrix& grad_gate = *grad_gate_;
  grad_gate.fill(0.0);
  for (std::size_t r = 0; r < grad_out_->rows(); ++r) {
    const double* g = grad_out_->row(r).data();
    const double* x = cached_input_->row(r).data();
    double* acc = grad_gate.row(0).data();
    for (std::size_t c = 0; c < features_; ++c) acc[c] += g[c] * x[c];
  }
  // gate = d * softmax(l / T); d gate_c / d l_k = gate_c (delta - s_k) / T
  // where s_k = gate_k / d.
  double dot = 0.0;
  for (std::size_t c = 0; c < features_; ++c) {
    dot += grad_gate(0, c) * cached_gate_(0, c) /
           static_cast<double>(features_);
  }
  for (std::size_t c = 0; c < features_; ++c) {
    logits_.grad(0, c) +=
        (grad_gate(0, c) * cached_gate_(0, c) -
         cached_gate_(0, c) * dot) /
        temperature_;
  }
}

void FeatureGate::backward_rows(std::size_t r0, std::size_t r1) {
  // dL/dx = grad * gate
  const double* gate = cached_gate_.row(0).data();
  for (std::size_t r = r0; r < r1; ++r) {
    const double* g = grad_out_->row(r).data();
    double* gi = grad_in_->row(r).data();
    for (std::size_t c = 0; c < features_; ++c) gi[c] = g[c] * gate[c];
  }
}

std::vector<Parameter*> FeatureGate::parameters() { return {&logits_}; }

}  // namespace fsda::nn
