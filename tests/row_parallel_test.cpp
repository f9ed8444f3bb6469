// Row-parallel staged passes (nn/layer.hpp, DESIGN.md §12).
//
// Pinned contracts:
//   - every layer type, the CGAN generator (ParallelSum with batch norm in
//     one branch) and discriminator give bit-identical outputs, input
//     gradients and parameter gradients whether their passes split rows
//     across the pool (on the calling thread) or run every region inline
//     (inside a pool task), for batches below and above the split;
//   - with Workspace::param_grads_enabled() off, every parameterized layer
//     leaves its gradients untouched and returns the same dX.
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/feature_gate.hpp"
#include "nn/linear.hpp"
#include "nn/parallel_sum.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {
namespace {

constexpr std::size_t kIn = 10;
/// Hidden width of the generator- and discriminator-shaped stacks: wide
/// enough that their parameter-gradient stage splits at 97 rows.
constexpr std::size_t kHidden = 64;

using Factory = std::function<std::unique_ptr<Layer>()>;

struct NamedFactory {
  std::string name;
  Factory make;
};

std::unique_ptr<Layer> generator_like() {
  common::Rng rng(41);
  auto trunk = std::make_unique<Sequential>();
  trunk->emplace<Linear>(kIn, kHidden, rng);
  trunk->emplace<ReLU>();
  trunk->emplace<BatchNorm1d>(kHidden);
  trunk->emplace<Linear>(kHidden, kHidden, rng);
  trunk->emplace<ReLU>();
  trunk->emplace<BatchNorm1d>(kHidden);
  trunk->emplace<Linear>(kHidden, 6, rng);
  auto net = std::make_unique<Sequential>();
  net->add(std::make_unique<ParallelSum>(std::make_unique<Linear>(kIn, 6, rng),
                                         std::move(trunk)));
  net->emplace<Tanh>();
  return net;
}

std::unique_ptr<Layer> discriminator_like() {
  common::Rng rng(43);
  auto net = std::make_unique<Sequential>();
  net->emplace<Linear>(kIn, kHidden, rng);
  net->emplace<LeakyReLU>(0.2);
  net->emplace<Dropout>(0.3, rng.split(1));
  net->emplace<Linear>(kHidden, kHidden, rng);
  net->emplace<LeakyReLU>(0.2);
  net->emplace<Dropout>(0.3, rng.split(2));
  net->emplace<Linear>(kHidden, 1, rng);
  net->emplace<Sigmoid>();
  return net;
}

std::vector<NamedFactory> all_layers() {
  return {
      {"Linear",
       [] {
         common::Rng rng(3);
         return std::make_unique<Linear>(kIn, 7, rng);
       }},
      {"ReLU", [] { return std::make_unique<ReLU>(); }},
      {"LeakyReLU", [] { return std::make_unique<LeakyReLU>(0.2); }},
      {"Tanh", [] { return std::make_unique<Tanh>(); }},
      {"Sigmoid", [] { return std::make_unique<Sigmoid>(); }},
      {"Softmax", [] { return std::make_unique<Softmax>(); }},
      {"Dropout",
       [] { return std::make_unique<Dropout>(0.3, common::Rng(5)); }},
      {"BatchNorm1d", [] { return std::make_unique<BatchNorm1d>(kIn); }},
      {"FeatureGate",
       [] {
         auto gate = std::make_unique<FeatureGate>(kIn, 0.5);
         common::Rng rng(7);
         for (auto& v : gate->parameters()[0]->value.data()) v = rng.normal();
         return gate;
       }},
      {"ParallelSum",
       [] {
         common::Rng rng(9);
         return std::make_unique<ParallelSum>(
             std::make_unique<Linear>(kIn, 5, rng),
             std::make_unique<Linear>(kIn, 5, rng));
       }},
      {"generator", generator_like},
      {"discriminator", discriminator_like},
  };
}

/// Everything a training pass produces, copied out of the workspace.
struct PassOutputs {
  la::Matrix out;
  la::Matrix dx;
  std::vector<la::Matrix> grads;
};

/// Two training steps (forward + backward, gradients accumulating) on one
/// workspace, so running statistics and mask streams carry over too.
PassOutputs train_twice(Layer& layer, const la::Matrix& x, std::uint64_t seed) {
  Workspace ws;
  common::Rng rng(seed);
  PassOutputs r;
  for (int step = 0; step < 2; ++step) {
    r.out = layer.forward(x, /*training=*/true, ws);
    la::Matrix g(r.out.rows(), r.out.cols(), 0.0);
    for (auto& v : g.data()) v = rng.normal();
    r.dx = layer.backward(g, ws);
  }
  for (const Parameter* p : layer.parameters()) r.grads.push_back(p->grad);
  return r;
}

void expect_bitwise(const la::Matrix& a, const la::Matrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.size() * sizeof(double)),
            0)
      << what;
}

TEST(RowParallelPass, EveryLayerMatchesItsInlinePassBitwise) {
  // 1, 2 and 5 rows run inline on the caller too; 24 and 97 split their
  // rows, and at 97 the wide stacks split their parameter stage as well.
  ASSERT_GE(24u, 2 * la::kParallelPassRows);
  ASSERT_GE((kHidden + 1) * 97 * kHidden, la::kParallelFlopThreshold);
  for (const NamedFactory& f : all_layers()) {
    for (const std::size_t rows : {1, 2, 5, 24, 97}) {
      SCOPED_TRACE(f.name + ", " + std::to_string(rows) + " rows");
      common::Rng rng(11 + rows);
      la::Matrix x(rows, kIn, 0.0);
      for (auto& v : x.data()) v = rng.normal();
      auto on_caller = f.make();
      auto in_task = f.make();
      const PassOutputs split = train_twice(*on_caller, x, 17);
      PassOutputs inline_run;
      common::ThreadPool::global()
          .submit([&] { inline_run = train_twice(*in_task, x, 17); })
          .get();
      expect_bitwise(split.out, inline_run.out, "output");
      expect_bitwise(split.dx, inline_run.dx, "input gradient");
      ASSERT_EQ(split.grads.size(), inline_run.grads.size());
      for (std::size_t p = 0; p < split.grads.size(); ++p) {
        expect_bitwise(split.grads[p], inline_run.grads[p],
                       "parameter gradient " + std::to_string(p));
      }
    }
  }
}

TEST(ParamGradsFlag, EveryParameterizedLayerHonorsIt) {
  for (const NamedFactory& f : all_layers()) {
    auto with_grads = f.make();
    auto without_grads = f.make();
    if (with_grads->parameters().empty()) continue;
    SCOPED_TRACE(f.name);
    common::Rng rng(19);
    la::Matrix x(40, kIn, 0.0);
    for (auto& v : x.data()) v = rng.normal();
    for (Parameter* p : without_grads->parameters()) p->grad.fill(0.5);
    Workspace ws_on;
    Workspace ws_off;
    const la::Matrix& out = with_grads->forward(x, /*training=*/true, ws_on);
    without_grads->forward(x, /*training=*/true, ws_off);
    la::Matrix g(out.rows(), out.cols(), 0.0);
    for (auto& v : g.data()) v = rng.normal();
    const la::Matrix& dx_on = with_grads->backward(g, ws_on);
    ws_off.set_param_grads_enabled(false);
    const la::Matrix& dx_off = without_grads->backward(g, ws_off);
    expect_bitwise(dx_on, dx_off, "input gradient");
    for (const Parameter* p : without_grads->parameters()) {
      for (double v : p->grad.data()) ASSERT_EQ(v, 0.5);
    }
  }
}

}  // namespace
}  // namespace fsda::nn
