// fsda::nn -- sequential container of layers.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace fsda::nn {

/// Runs layers in order on forward and in reverse on backward, staging
/// them all into one pass: each stretch between barriers is one pool
/// region (nn/layer.hpp).
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer (builder style).
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  std::vector<Parameter*> parameters() override;
  void for_each_child(const std::function<void(Layer&)>& fn) override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }
  [[nodiscard]] std::size_t output_size(std::size_t input_size) const override;

  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i);

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace fsda::nn
