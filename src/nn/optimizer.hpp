// fsda::nn -- the Adam optimizer.
//
// The paper trains both GAN networks with Adam at lr 2e-4 and weight decay
// 1e-6 (Section V-C3); every network in the repository trains with it.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace fsda::nn {

/// Adam with decoupled weight decay (AdamW-style), bias-corrected.  Owns a
/// view of the parameters it updates.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double lr = 2e-4, double beta1 = 0.5,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 1e-6);

  /// Applies one update using the accumulated gradients, then leaves the
  /// gradients untouched (call zero_grad() to clear them).
  void step();

  /// Zeroes all parameter gradients (one pool region from
  /// la::kParallelAdamElements elements, like step()).
  void zero_grad();

  [[nodiscard]] const std::vector<Parameter*>& params() const {
    return params_;
  }

 private:
  /// Runs fn(parameter index, offset, length) over the element range
  /// [0, total) of the parameters laid end to end, split across the pool
  /// from la::kParallelAdamElements elements.
  template <typename Fn>
  void sweep(const Fn& fn);

  std::vector<Parameter*> params_;
  /// offsets_[i] = elements of params_[0..i); offsets_.back() is the total.
  std::vector<std::size_t> offsets_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  std::vector<la::Matrix> m_;
  std::vector<la::Matrix> v_;
  std::int64_t t_ = 0;
};

/// Clips the global L2 norm of all gradients to `max_norm` (stabilizes the
/// adversarial baselines).  Returns the pre-clip norm.
double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm);

}  // namespace fsda::nn
