#include "nn/parallel_sum.hpp"

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

ParallelSum::ParallelSum(LayerPtr a, LayerPtr b)
    : a_(std::move(a)), b_(std::move(b)) {
  FSDA_CHECK_MSG(a_ != nullptr && b_ != nullptr, "null branch");
}

const la::Matrix& ParallelSum::forward(const la::Matrix& input, bool training,
                                       Workspace& ws) {
  const la::Matrix& ya = a_->forward(input, training, ws);
  const la::Matrix& yb = b_->forward(input, training, ws);
  la::Matrix& out = ws.buffer(this, 0, ya.rows(), ya.cols());
  la::add_into(ya, yb, out);
  return out;
}

const la::Matrix& ParallelSum::backward(const la::Matrix& grad_output,
                                        Workspace& ws) {
  // Both branches see the caller's input-gradient flag; when it is off
  // neither produces a dX, so there is nothing to sum.
  const la::Matrix& ga = a_->backward(grad_output, ws);
  const la::Matrix& gb = b_->backward(grad_output, ws);
  if (!ws.input_grad_enabled()) return ga;
  la::Matrix& grad = ws.buffer(this, 1, ga.rows(), ga.cols());
  la::add_into(ga, gb, grad);
  return grad;
}

std::vector<Parameter*> ParallelSum::parameters() {
  std::vector<Parameter*> params = a_->parameters();
  for (Parameter* p : b_->parameters()) params.push_back(p);
  return params;
}

void ParallelSum::for_each_child(const std::function<void(Layer&)>& fn) {
  fn(*a_);
  fn(*b_);
}

std::size_t ParallelSum::output_size(std::size_t input_size) const {
  return a_->output_size(input_size);
}

}  // namespace fsda::nn
