// fsda::nn -- elementwise activation layers.
//
// The CTGAN-style architecture of the paper (Section V-C3) uses ReLU in the
// generator trunk, tanh on continuous outputs, LeakyReLU in the
// discriminator, and a sigmoid discriminator head.
#pragma once

#include "nn/layer.hpp"

namespace fsda::nn {

/// max(0, x).
class ReLU : public Layer {
 public:
  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  void forward_rows(std::size_t r0, std::size_t r1);
  void backward_rows(std::size_t r0, std::size_t r1);

  const la::Matrix* cached_input_ = nullptr;
  la::Matrix* out_ = nullptr;
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
};

/// x for x >= 0, alpha * x otherwise.
class LeakyReLU : public Layer {
 public:
  explicit LeakyReLU(double alpha = 0.2);
  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  [[nodiscard]] std::string name() const override { return "LeakyReLU"; }
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  void forward_rows(std::size_t r0, std::size_t r1);
  void backward_rows(std::size_t r0, std::size_t r1);

  double alpha_;
  const la::Matrix* cached_input_ = nullptr;
  la::Matrix* out_ = nullptr;
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
};

/// tanh(x).
class Tanh : public Layer {
 public:
  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }

 private:
  void forward_rows(std::size_t r0, std::size_t r1);
  void backward_rows(std::size_t r0, std::size_t r1);

  const la::Matrix* cached_input_ = nullptr;
  la::Matrix* cached_output_ = nullptr;
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
};

/// 1 / (1 + exp(-x)).
class Sigmoid : public Layer {
 public:
  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  [[nodiscard]] std::string name() const override { return "Sigmoid"; }

 private:
  void forward_rows(std::size_t r0, std::size_t r1);
  void backward_rows(std::size_t r0, std::size_t r1);

  const la::Matrix* cached_input_ = nullptr;
  la::Matrix* cached_output_ = nullptr;
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
};

/// Row-wise softmax (numerically stabilized).  backward() assumes the
/// downstream loss supplies dL/d(softmax input) is needed, i.e. it applies
/// the full softmax Jacobian.
class Softmax : public Layer {
 public:
  const la::Matrix& stage_forward(const la::Matrix& input, bool training,
                                  Workspace& ws, Pass& pass) override;
  const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                   Workspace& ws, Pass& pass) override;
  [[nodiscard]] std::string name() const override { return "Softmax"; }

 private:
  void forward_rows(std::size_t r0, std::size_t r1);
  void backward_rows(std::size_t r0, std::size_t r1);

  const la::Matrix* cached_input_ = nullptr;
  la::Matrix* cached_output_ = nullptr;
  const la::Matrix* grad_out_ = nullptr;
  la::Matrix* grad_in_ = nullptr;
};

/// Row-wise softmax as a free function (used outside the layer graph).
la::Matrix softmax_rows(const la::Matrix& logits);

/// Destination-passing softmax; out must be pre-shaped like logits and may
/// alias it.
void softmax_rows_into(const la::Matrix& logits, la::Matrix& out);

}  // namespace fsda::nn
