// Tests for fsda::nn::Workspace -- buffer identity/reuse and the headline
// guarantee of the refactor: a steady-state Sequential training step
// performs zero heap matrix allocations.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "la/matrix.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/parallel_sum.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {
namespace {

TEST(WorkspaceTest, BuffersAreStableAndKeyedByOwnerAndSlot) {
  Workspace ws;
  int owner_a = 0;
  int owner_b = 0;
  la::Matrix& a0 = ws.buffer(&owner_a, 0, 3, 4);
  la::Matrix& b0 = ws.buffer(&owner_b, 0, 3, 4);
  la::Matrix& a1 = ws.buffer(&owner_a, 1, 2, 2);
  EXPECT_NE(&a0, &b0);
  EXPECT_NE(&a0, &a1);
  EXPECT_EQ(ws.num_buffers(), 3u);
  // Re-requesting the same key returns the same matrix, resized.
  la::Matrix& a0_again = ws.buffer(&owner_a, 0, 5, 2);
  EXPECT_EQ(&a0, &a0_again);
  EXPECT_EQ(a0.rows(), 5u);
  EXPECT_EQ(a0.cols(), 2u);
  EXPECT_EQ(ws.num_buffers(), 3u);
  ws.clear();
  EXPECT_EQ(ws.num_buffers(), 0u);
}

TEST(WorkspaceTest, SteadyStateTrainingStepIsAllocationFree) {
  common::Rng rng(7);
  Sequential net;
  net.emplace<Linear>(24, 32, rng);
  net.emplace<ReLU>();
  net.emplace<Dropout>(0.3, rng.split(1));
  net.emplace<Linear>(32, 16, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(16, 3, rng);

  Adam optimizer(net.parameters(), 1e-3);
  Workspace ws;
  la::Matrix x = la::Matrix::randn(20, 24, rng);
  std::vector<std::int64_t> y(20);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 3);
  la::Matrix loss_grad;

  auto step = [&] {
    optimizer.zero_grad();
    const la::Matrix& logits = net.forward(x, /*training=*/true, ws);
    softmax_cross_entropy_into(logits, y, loss_grad);
    net.backward(loss_grad, ws);
    optimizer.step();
  };

  // Warm up: first steps size the workspace slabs and optimizer state.
  step();
  step();

  const std::size_t before = la::matrix_allocations();
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(la::matrix_allocations(), before)
      << "steady-state training step allocated matrix storage";
}

TEST(WorkspaceTest, BatchSizeShrinkStaysAllocationFree) {
  common::Rng rng(9);
  Sequential net;
  net.emplace<Linear>(8, 12, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(12, 2, rng);
  Adam optimizer(net.parameters(), 1e-3);
  Workspace ws;
  la::Matrix x_full = la::Matrix::randn(16, 8, rng);
  la::Matrix x_tail = la::Matrix::randn(5, 8, rng);  // ragged last batch
  std::vector<std::int64_t> y_full(16, 0), y_tail(5, 1);
  la::Matrix loss_grad;

  auto step = [&](const la::Matrix& x, const std::vector<std::int64_t>& y) {
    optimizer.zero_grad();
    const la::Matrix& logits = net.forward(x, true, ws);
    softmax_cross_entropy_into(logits, y, loss_grad);
    net.backward(loss_grad, ws);
    optimizer.step();
  };
  step(x_full, y_full);
  step(x_tail, y_tail);

  const std::size_t before = la::matrix_allocations();
  step(x_full, y_full);  // alternating sizes reuse the larger capacity
  step(x_tail, y_tail);
  EXPECT_EQ(la::matrix_allocations(), before);
}

// The CGAN generator's shape: a skip Linear and a Linear/ReLU/BN trunk
// summed, then tanh -- so the first layer is a ParallelSum whose branches
// both start with a Linear.
std::unique_ptr<Sequential> make_generator_like(std::uint64_t seed) {
  common::Rng rng(seed);
  auto trunk = std::make_unique<Sequential>();
  trunk->emplace<Linear>(10, 16, rng);
  trunk->emplace<ReLU>();
  trunk->emplace<BatchNorm1d>(16);
  trunk->emplace<Linear>(16, 6, rng);
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<ParallelSum>(std::make_unique<Linear>(10, 6, rng),
                                         std::move(trunk)));
  net->emplace<Tanh>();
  return net;
}

std::unique_ptr<Sequential> make_discriminator_like(std::uint64_t seed) {
  common::Rng rng(seed);
  auto net = std::make_unique<Sequential>();
  net->emplace<Linear>(10, 16, rng);
  net->emplace<LeakyReLU>(0.2);
  net->emplace<Dropout>(0.3, rng.split(16));
  net->emplace<Linear>(16, 1, rng);
  net->emplace<Sigmoid>();
  return net;
}

void expect_param_grads_bitwise_equal(Sequential& a, Sequential& b) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    ASSERT_EQ(pa[p]->grad.size(), pb[p]->grad.size());
    ASSERT_EQ(std::memcmp(pa[p]->grad.data().data(),
                          pb[p]->grad.data().data(),
                          pa[p]->grad.size() * sizeof(double)),
              0)
        << "parameter " << p;
  }
}

TEST(WorkspaceTest, DisabledInputGradKeepsParameterGradsBitwise) {
  for (const bool generator : {true, false}) {
    SCOPED_TRACE(generator ? "generator-like" : "discriminator-like");
    auto with_dx = generator ? make_generator_like(5) : make_discriminator_like(5);
    auto without_dx =
        generator ? make_generator_like(5) : make_discriminator_like(5);
    common::Rng rng(17);
    const la::Matrix x = la::Matrix::randn(12, 10, rng);
    const std::size_t out_cols = generator ? 6 : 1;
    Workspace ws_on;
    Workspace ws_off;
    for (int step = 0; step < 2; ++step) {
      const la::Matrix g = la::Matrix::randn(12, out_cols, rng);
      with_dx->forward(x, /*training=*/true, ws_on);
      without_dx->forward(x, /*training=*/true, ws_off);
      with_dx->backward(g, ws_on);
      ws_off.set_input_grad_enabled(false);
      without_dx->backward(g, ws_off);
      // The caller's flag survives the pass; only the first layer saw it.
      EXPECT_FALSE(ws_off.input_grad_enabled());
      ws_off.set_input_grad_enabled(true);
      expect_param_grads_bitwise_equal(*with_dx, *without_dx);
    }
    // Skipped dX means fewer packs: no transposed pack for a first Linear.
    EXPECT_LT(ws_off.num_packs(), ws_on.num_packs());
  }
}

// Batch norm's normalized input and dropout's mask are workspace slots, not
// layer members: the workspace accounts for every batch-sized buffer of the
// pass, and steady-state steps still allocate nothing.
TEST(WorkspaceTest, LayerCachesLiveInTheWorkspace) {
  common::Rng rng(23);
  constexpr std::size_t kRows = 20;
  constexpr std::size_t kIn = 8;
  constexpr std::size_t kHidden = 16;
  constexpr std::size_t kClasses = 3;
  Sequential net;
  net.emplace<Linear>(kIn, kHidden, rng);
  net.emplace<BatchNorm1d>(kHidden);
  net.emplace<ReLU>();
  net.emplace<Dropout>(0.3, rng.split(1));
  net.emplace<Linear>(kHidden, kClasses, rng);

  Workspace ws;
  const la::Matrix x = la::Matrix::randn(kRows, kIn, rng);
  net.forward(x, /*training=*/true, ws);
  // Outputs of Linear, BatchNorm1d, ReLU and Dropout (kRows x kHidden
  // each) and of the head, plus batch norm's normalized input and the
  // dropout mask (kRows x kHidden each).
  EXPECT_EQ(ws.total_elements(),
            (4 + 2) * kRows * kHidden + kRows * kClasses);

  Adam optimizer(net.parameters(), 1e-3);
  std::vector<std::int64_t> y(kRows);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<std::int64_t>(i % kClasses);
  }
  la::Matrix loss_grad;
  auto step = [&] {
    optimizer.zero_grad();
    const la::Matrix& logits = net.forward(x, /*training=*/true, ws);
    softmax_cross_entropy_into(logits, y, loss_grad);
    net.backward(loss_grad, ws);
    optimizer.step();
  };
  step();
  step();
  const std::size_t before = la::matrix_allocations();
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(la::matrix_allocations(), before)
      << "steady-state step with batch norm and dropout allocated";
}

}  // namespace
}  // namespace fsda::nn
