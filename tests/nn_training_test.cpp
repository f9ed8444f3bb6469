// Training-level tests for fsda::nn: Adam drives losses down and an MLP
// learns a nonlinear decision boundary; weight decay and gradient clipping
// act as documented.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace fsda::nn {
namespace {

/// XOR-style dataset: label = (x > 0) XOR (y > 0).
void make_xor(std::size_t n, common::Rng& rng, la::Matrix& x,
              std::vector<std::int64_t>& y) {
  x = la::Matrix(n, 2);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    x(i, 0) = a;
    x(i, 1) = b;
    y[i] = ((a > 0) != (b > 0)) ? 1 : 0;
  }
}

double train_and_eval(Adam& opt, Sequential& net, const la::Matrix& x,
                      const std::vector<std::int64_t>& y,
                      std::size_t epochs) {
  for (std::size_t e = 0; e < epochs; ++e) {
    opt.zero_grad();
    const la::Matrix logits = net.forward(x, true);
    const LossResult loss = softmax_cross_entropy(logits, y);
    net.backward(loss.grad);
    opt.step();
  }
  const la::Matrix probs = softmax_rows(net.forward(x, false));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    correct += (probs(i, 1) > 0.5 ? 1 : 0) == y[i];
  }
  return static_cast<double>(correct) / static_cast<double>(x.rows());
}

TEST(TrainingTest, AdamLearnsXor) {
  common::Rng rng(1);
  la::Matrix x;
  std::vector<std::int64_t> y;
  make_xor(400, rng, x, y);
  Sequential net;
  net.emplace<Linear>(2, 16, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(16, 16, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(16, 2, rng);
  Adam opt(net.parameters(), 5e-3, 0.9, 0.999, 1e-8, 0.0);
  EXPECT_GT(train_and_eval(opt, net, x, y, 400), 0.95);
}

TEST(OptimizerTest, WeightDecayShrinksUnusedParameters) {
  common::Rng rng(3);
  Linear layer(2, 2, rng);
  const double before = layer.weight().value.frobenius_norm();
  Adam opt(layer.parameters(), 1e-2, 0.9, 0.999, 1e-8, /*decay=*/0.1);
  // No gradient signal: only decay acts.
  for (int i = 0; i < 50; ++i) {
    opt.zero_grad();
    opt.step();
  }
  EXPECT_LT(layer.weight().value.frobenius_norm(), before);
}

TEST(OptimizerTest, ClipGradNormRescales) {
  common::Rng rng(4);
  Linear layer(3, 3, rng);
  for (auto& g : layer.weight().grad.data()) g = 10.0;
  for (auto& g : layer.bias().grad.data()) g = 10.0;
  const double norm = clip_grad_norm(layer.parameters(), 1.0);
  EXPECT_GT(norm, 1.0);
  double clipped = 0.0;
  for (Parameter* p : layer.parameters()) {
    for (double g : p->grad.data()) clipped += g * g;
  }
  EXPECT_NEAR(std::sqrt(clipped), 1.0, 1e-9);
}

TEST(OptimizerTest, ClipIsNoOpUnderThreshold) {
  common::Rng rng(5);
  Linear layer(2, 2, rng);
  for (auto& g : layer.weight().grad.data()) g = 1e-3;
  const la::Matrix before = layer.weight().grad;
  clip_grad_norm(layer.parameters(), 10.0);
  EXPECT_EQ(layer.weight().grad, before);
}

}  // namespace
}  // namespace fsda::nn
