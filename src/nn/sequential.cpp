#include "nn/sequential.hpp"

#include <iterator>

#include "common/error.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

std::vector<Parameter*> collect_parameters(
    const std::vector<LayerPtr>& layers) {
  std::vector<Parameter*> out;
  for (const auto& layer : layers) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

void zero_gradients(const std::vector<Parameter*>& params) {
  for (Parameter* p : params) p->zero_grad();
}

const la::Matrix& Sequential::stage_forward(const la::Matrix& input,
                                            bool training, Workspace& ws,
                                            Pass& pass) {
  const la::Matrix* x = &input;
  for (auto& layer : layers_) {
    x = &layer->stage_forward(*x, training, ws, pass);
  }
  return *x;
}

const la::Matrix& Sequential::stage_backward(const la::Matrix& grad_output,
                                             Workspace& ws, Pass& pass) {
  // Every layer but the first feeds its dX to the layer before it; only the
  // first one's dX leaves the stack, so only it sees the caller's flag.
  const bool input_grad = ws.input_grad_enabled();
  const la::Matrix* g = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    ws.set_input_grad_enabled(std::next(it) != layers_.rend() || input_grad);
    g = &(*it)->stage_backward(*g, ws, pass);
  }
  ws.set_input_grad_enabled(input_grad);
  return *g;
}

std::vector<Parameter*> Sequential::parameters() {
  return collect_parameters(layers_);
}

void Sequential::for_each_child(const std::function<void(Layer&)>& fn) {
  for (auto& layer : layers_) fn(*layer);
}

std::size_t Sequential::output_size(std::size_t input_size) const {
  std::size_t size = input_size;
  for (const auto& layer : layers_) size = layer->output_size(size);
  return size;
}

Layer& Sequential::layer(std::size_t i) {
  FSDA_CHECK_MSG(i < layers_.size(), "layer index out of range");
  return *layers_[i];
}

}  // namespace fsda::nn
