#include "nn/parallel_sum.hpp"

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

ParallelSum::ParallelSum(LayerPtr a, LayerPtr b)
    : a_(std::move(a)), b_(std::move(b)) {
  FSDA_CHECK_MSG(a_ != nullptr && b_ != nullptr, "null branch");
}

const la::Matrix& ParallelSum::stage_forward(const la::Matrix& input,
                                             bool training, Workspace& ws,
                                             Pass& pass) {
  // Both branches stage into the caller's pass; the sum is one more row
  // stage after them, so a branch without barriers (the generator's skip
  // Linear) shares the other branch's regions.
  lhs_ = &a_->stage_forward(input, training, ws, pass);
  rhs_ = &b_->stage_forward(input, training, ws, pass);
  out_ = &ws.buffer(this, 0, lhs_->rows(), lhs_->cols());
  pass.row_stage<ParallelSum, &ParallelSum::add_rows>(this);
  return *out_;
}

const la::Matrix& ParallelSum::stage_backward(const la::Matrix& grad_output,
                                              Workspace& ws, Pass& pass) {
  // Both branches see the caller's input-gradient flag; when it is off
  // neither produces a dX, so there is nothing to sum.
  const la::Matrix& ga = a_->stage_backward(grad_output, ws, pass);
  const la::Matrix& gb = b_->stage_backward(grad_output, ws, pass);
  if (!ws.input_grad_enabled()) return ga;
  lhs_ = &ga;
  rhs_ = &gb;
  out_ = &ws.buffer(this, 1, ga.rows(), ga.cols());
  pass.row_stage<ParallelSum, &ParallelSum::add_rows>(this);
  return *out_;
}

void ParallelSum::add_rows(std::size_t r0, std::size_t r1) {
  la::add_into(la::ConstMatrixView(*lhs_).row_block(r0, r1 - r0),
               la::ConstMatrixView(*rhs_).row_block(r0, r1 - r0),
               la::MatrixView(*out_).row_block(r0, r1 - r0));
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
