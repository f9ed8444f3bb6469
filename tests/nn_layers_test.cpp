// Gradient checks for every fsda::nn layer and loss: analytic backward
// passes are compared against central finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "common/rng.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/feature_gate.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"

namespace fsda::nn {
namespace {

constexpr double kEps = 1e-5;
constexpr double kTol = 1e-6;

/// Scalar objective: sum(weights ⊙ layer(x)); checks dL/dx and dL/dparams.
void grad_check(Layer& layer, const la::Matrix& x, bool training = true) {
  common::Rng rng(123);
  la::Matrix first = layer.forward(x, training);
  la::Matrix loss_weights = la::Matrix::randn(first.rows(), first.cols(), rng);

  auto objective = [&](const la::Matrix& input) {
    const la::Matrix out = layer.forward(input, training);
    double acc = 0.0;
    for (std::size_t r = 0; r < out.rows(); ++r) {
      for (std::size_t c = 0; c < out.cols(); ++c) {
        acc += loss_weights(r, c) * out(r, c);
      }
    }
    return acc;
  };

  // Analytic gradients: run forward once more, then backward.
  layer.forward(x, training);
  for (Parameter* p : layer.parameters()) p->zero_grad();
  const la::Matrix grad_input = layer.backward(loss_weights);

  // Check input gradient.
  la::Matrix x_mut = x;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const double original = x_mut(r, c);
      x_mut(r, c) = original + kEps;
      const double up = objective(x_mut);
      x_mut(r, c) = original - kEps;
      const double down = objective(x_mut);
      x_mut(r, c) = original;
      const double numeric = (up - down) / (2.0 * kEps);
      ASSERT_NEAR(grad_input(r, c), numeric, kTol)
          << layer.name() << " input grad at (" << r << "," << c << ")";
    }
  }

  // Check parameter gradients (recompute analytic after the FD loop to be
  // safe against forward-state perturbation).
  layer.forward(x, training);
  for (Parameter* p : layer.parameters()) p->zero_grad();
  layer.backward(loss_weights);
  for (Parameter* p : layer.parameters()) {
    for (std::size_t r = 0; r < p->value.rows(); ++r) {
      for (std::size_t c = 0; c < p->value.cols(); ++c) {
        // Direct value writes must invalidate cached weight packs.
        const double original = p->value(r, c);
        p->value(r, c) = original + kEps;
        p->bump_version();
        const double up = objective(x);
        p->value(r, c) = original - kEps;
        p->bump_version();
        const double down = objective(x);
        p->value(r, c) = original;
        p->bump_version();
        const double numeric = (up - down) / (2.0 * kEps);
        ASSERT_NEAR(p->grad(r, c), numeric, kTol)
            << layer.name() << " param grad at (" << r << "," << c << ")";
      }
    }
  }
}

TEST(GradCheckTest, Linear) {
  common::Rng rng(1);
  Linear layer(4, 3, rng);
  grad_check(layer, la::Matrix::randn(5, 4, rng));
}

TEST(GradCheckTest, ReLU) {
  common::Rng rng(2);
  ReLU layer;
  // Offset inputs away from the kink at 0 for clean finite differences.
  la::Matrix x = la::Matrix::randn(4, 6, rng);
  x.apply([](double v) { return std::abs(v) < 0.05 ? v + 0.2 : v; });
  grad_check(layer, x);
}

TEST(GradCheckTest, LeakyReLU) {
  common::Rng rng(3);
  LeakyReLU layer(0.2);
  la::Matrix x = la::Matrix::randn(4, 6, rng);
  x.apply([](double v) { return std::abs(v) < 0.05 ? v + 0.2 : v; });
  grad_check(layer, x);
}

TEST(GradCheckTest, TanhLayer) {
  common::Rng rng(4);
  Tanh layer;
  grad_check(layer, la::Matrix::randn(4, 5, rng));
}

TEST(GradCheckTest, SigmoidLayer) {
  common::Rng rng(5);
  Sigmoid layer;
  grad_check(layer, la::Matrix::randn(4, 5, rng));
}

TEST(GradCheckTest, SoftmaxLayer) {
  common::Rng rng(6);
  Softmax layer;
  grad_check(layer, la::Matrix::randn(4, 5, rng));
}

TEST(GradCheckTest, BatchNormTraining) {
  common::Rng rng(7);
  BatchNorm1d layer(5);
  grad_check(layer, la::Matrix::randn(8, 5, rng), /*training=*/true);
}

TEST(GradCheckTest, BatchNormInference) {
  common::Rng rng(8);
  BatchNorm1d layer(5);
  // Prime running statistics with one training pass, then check eval mode.
  layer.forward(la::Matrix::randn(32, 5, rng), /*training=*/true);
  grad_check(layer, la::Matrix::randn(6, 5, rng), /*training=*/false);
}

TEST(GradCheckTest, FeatureGate) {
  common::Rng rng(9);
  FeatureGate layer(6);
  // Randomize the logits so the gate is not at its symmetric point.
  for (Parameter* p : layer.parameters()) {
    for (auto& v : p->value.data()) v = rng.normal(0.0, 0.3);
    p->bump_version();
  }
  grad_check(layer, la::Matrix::randn(5, 6, rng));
}

TEST(GradCheckTest, SequentialStack) {
  common::Rng rng(10);
  Sequential net;
  net.emplace<Linear>(4, 6, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(6, 2, rng);
  grad_check(net, la::Matrix::randn(3, 4, rng));
}

TEST(DropoutTest, EvalModeIsIdentityAndTrainingScales) {
  common::Rng rng(11);
  Dropout layer(0.5, common::Rng(99));
  const la::Matrix x = la::Matrix::randn(50, 40, rng);
  EXPECT_EQ(layer.forward(x, /*training=*/false), x);
  const la::Matrix y = layer.forward(x, /*training=*/true);
  // Inverted dropout: surviving activations scaled by 2, others zero.
  std::size_t zeros = 0;
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t c = 0; c < y.cols(); ++c) {
      if (y(r, c) == 0.0) ++zeros;
      else EXPECT_NEAR(y(r, c), 2.0 * x(r, c), 1e-12);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 2000.0, 0.5, 0.06);
  // Backward masks the same entries.
  const la::Matrix grad = layer.backward(la::Matrix(50, 40, 1.0));
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t c = 0; c < y.cols(); ++c) {
      EXPECT_DOUBLE_EQ(grad(r, c), y(r, c) == 0.0 ? 0.0 : 2.0);
    }
  }
}

TEST(SoftmaxTest, RowsSumToOne) {
  common::Rng rng(12);
  const la::Matrix probs = softmax_rows(la::Matrix::randn(6, 9, rng) * 10.0);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double total = 0.0;
    for (double v : probs.row(r)) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(LossGradCheckTest, SoftmaxCrossEntropy) {
  common::Rng rng(13);
  la::Matrix logits = la::Matrix::randn(5, 4, rng);
  const std::vector<std::int64_t> labels = {0, 3, 1, 2, 1};
  const LossResult analytic = softmax_cross_entropy(logits, labels);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      const double original = logits(r, c);
      logits(r, c) = original + kEps;
      const double up = softmax_cross_entropy(logits, labels).value;
      logits(r, c) = original - kEps;
      const double down = softmax_cross_entropy(logits, labels).value;
      logits(r, c) = original;
      EXPECT_NEAR(analytic.grad(r, c), (up - down) / (2 * kEps), kTol);
    }
  }
}

TEST(LossGradCheckTest, BceWithLogitsWeighted) {
  common::Rng rng(14);
  la::Matrix logits = la::Matrix::randn(6, 1, rng);
  const std::vector<double> targets = {1, 0, 1, 1, 0, 0};
  const std::vector<double> weights = {1, 2, 0.5, 1, 3, 1};
  const LossResult analytic = bce_with_logits(logits, targets, weights);
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const double original = logits(r, 0);
    logits(r, 0) = original + kEps;
    const double up = bce_with_logits(logits, targets, weights).value;
    logits(r, 0) = original - kEps;
    const double down = bce_with_logits(logits, targets, weights).value;
    logits(r, 0) = original;
    EXPECT_NEAR(analytic.grad(r, 0), (up - down) / (2 * kEps), kTol);
  }
}

TEST(LossGradCheckTest, BceOnProbs) {
  la::Matrix probs{{0.2}, {0.7}, {0.5}};
  const std::vector<double> targets = {0, 1, 1};
  const LossResult analytic = bce_on_probs(probs, targets);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    const double original = probs(r, 0);
    probs(r, 0) = original + kEps;
    const double up = bce_on_probs(probs, targets).value;
    probs(r, 0) = original - kEps;
    const double down = bce_on_probs(probs, targets).value;
    probs(r, 0) = original;
    EXPECT_NEAR(analytic.grad(r, 0), (up - down) / (2 * kEps), 1e-5);
  }
}

TEST(LossGradCheckTest, Mse) {
  common::Rng rng(15);
  la::Matrix pred = la::Matrix::randn(4, 3, rng);
  const la::Matrix target = la::Matrix::randn(4, 3, rng);
  const LossResult analytic = mse(pred, target);
  for (std::size_t r = 0; r < pred.rows(); ++r) {
    for (std::size_t c = 0; c < pred.cols(); ++c) {
      const double original = pred(r, c);
      pred(r, c) = original + kEps;
      const double up = mse(pred, target).value;
      pred(r, c) = original - kEps;
      const double down = mse(pred, target).value;
      pred(r, c) = original;
      EXPECT_NEAR(analytic.grad(r, c), (up - down) / (2 * kEps), kTol);
    }
  }
}

TEST(LossGradCheckTest, GaussianKl) {
  common::Rng rng(16);
  la::Matrix mu = la::Matrix::randn(3, 4, rng);
  la::Matrix log_var = la::Matrix::randn(3, 4, rng) * 0.5;
  const KlResult analytic = gaussian_kl(mu, log_var);
  for (std::size_t r = 0; r < mu.rows(); ++r) {
    for (std::size_t c = 0; c < mu.cols(); ++c) {
      double original = mu(r, c);
      mu(r, c) = original + kEps;
      const double up = gaussian_kl(mu, log_var).value;
      mu(r, c) = original - kEps;
      const double down = gaussian_kl(mu, log_var).value;
      mu(r, c) = original;
      EXPECT_NEAR(analytic.grad_mu(r, c), (up - down) / (2 * kEps), kTol);

      original = log_var(r, c);
      log_var(r, c) = original + kEps;
      const double up2 = gaussian_kl(mu, log_var).value;
      log_var(r, c) = original - kEps;
      const double down2 = gaussian_kl(mu, log_var).value;
      log_var(r, c) = original;
      EXPECT_NEAR(analytic.grad_log_var(r, c), (up2 - down2) / (2 * kEps),
                  kTol);
    }
  }
}

TEST(KlTest, ZeroAtStandardNormal) {
  const la::Matrix mu(3, 2, 0.0);
  const la::Matrix log_var(3, 2, 0.0);
  EXPECT_NEAR(gaussian_kl(mu, log_var).value, 0.0, 1e-12);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(DropoutTest, MaskMatchesPerElementBernoulliReference) {
  // The two-pass forward must draw exactly what a per-element
  // rng.bernoulli(p) loop on the same stream draws, in the same order.
  common::Rng rng(77);
  const la::Matrix x = la::Matrix::randn(37, 29, rng);
  const double p = 0.3;
  const common::Rng stream(4242);
  Dropout drop(p, stream);
  Workspace ws;
  for (int call = 0; call < 2; ++call) {  // the stream carries across calls
    common::Rng ref = stream;
    for (int skip = 0; skip < call; ++skip) {
      for (std::size_t i = 0; i < x.size(); ++i) (void)ref.bernoulli(p);
    }
    const la::Matrix& out = drop.forward(x, /*training=*/true, ws);
    const double scale = 1.0 / (1.0 - p);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double keep = ref.bernoulli(p) ? 0.0 : scale;
      ASSERT_TRUE(same_bits(out.data()[i], x.data()[i] * keep))
          << "call " << call << " element " << i;
    }
  }
  // Backward applies the same mask.
  const la::Matrix g = la::Matrix::randn(37, 29, rng);
  const la::Matrix& out = drop.forward(x, /*training=*/true, ws);
  const la::Matrix& dx = drop.backward(g, ws);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(dx.data()[i] == 0.0, out.data()[i] == 0.0) << i;
  }
}

TEST(TanhTest, SplitForwardMatchesInlineTanhBitwise) {
  // Large enough that the pass splits its rows across the pool.
  common::Rng rng(91);
  const la::Matrix x = la::Matrix::randn(96, 40, rng) * 2.0;
  ASSERT_GE(x.rows(), 2 * la::kParallelPassRows);
  Tanh tanh_layer;
  Workspace ws;
  const la::Matrix& y = tanh_layer.forward(x, /*training=*/true, ws);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_TRUE(same_bits(y.data()[i], std::tanh(x.data()[i]))) << i;
  }
}

}  // namespace
}  // namespace fsda::nn
