// Training fast path (DESIGN.md section 12): backward-pass packed GEMM
// kernels, the fused Adam sweep, and fits that are bit-identical on any
// thread count.
//
// Pinned contracts:
//   - gemm_grad_weights and the pack_transposed dX path match naive
//     references (and each other across ISAs) at 1e-12, and the AVX2 dW of
//     fewer than four output columns equals the std::fma chain bitwise;
//   - fused_adam_update reproduces the reference Adam loop BITWISE over a
//     100-step trajectory, on both the scalar and AVX2 kernels;
//   - nn::Adam's pool sweep equals a serial per-parameter sweep bitwise,
//     and a CGAN, VAE or autoencoder fit whose regions split across the
//     pool equals the same fit run inline inside a pool task;
//   - a steady-state training loop allocates no matrices, batch norm and
//     dropout included.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/autoencoder.hpp"
#include "core/cgan.hpp"
#include "core/vae.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/optim_kernels.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"

namespace fsda {
namespace {

la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         common::Rng& rng) {
  la::Matrix m(rows, cols, 0.0);
  for (auto& v : m.data()) v = rng.normal();
  return m;
}

// Restores global ISA forcing even when an assertion fails.
struct IsaGuard {
  ~IsaGuard() { la::set_gemm_isa(la::GemmIsa::Auto); }
};

// ---------------------------------------------------------------------------
// Backward-pass kernels.

TEST(GemmBackward, GradWeightsMatchesNaiveReference) {
  common::Rng rng(101);
  for (const auto [m, k, n] :
       {std::array<std::size_t, 3>{1, 1, 1}, {3, 5, 7}, {17, 23, 9},
        {32, 40, 33}}) {
    const la::Matrix a = random_matrix(m, k, rng);
    const la::Matrix dy = random_matrix(m, n, rng);
    la::Matrix dw(k, n, 0.5);  // accumulate on top of an existing gradient
    la::Matrix expected = dw;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < n; ++j) {
          expected(kk, j) += a(i, kk) * dy(i, j);
        }
      }
    }
    la::gemm_grad_weights(a, dy, dw, /*accumulate=*/true);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(dw(kk, j), expected(kk, j), 1e-12)
            << m << "x" << k << "x" << n << " at (" << kk << "," << j << ")";
      }
    }
  }
}

TEST(GemmBackward, GradWeightsScalarVsAvx2) {
  if (!la::gemm_avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  IsaGuard guard;
  common::Rng rng(202);
  for (const auto [m, k, n] :
       {std::array<std::size_t, 3>{5, 9, 13}, {64, 96, 77}, {33, 17, 130}}) {
    const la::Matrix a = random_matrix(m, k, rng);
    const la::Matrix dy = random_matrix(m, n, rng);
    la::Matrix dw_scalar(k, n, 0.0);
    la::Matrix dw_avx2(k, n, 0.0);
    la::set_gemm_isa(la::GemmIsa::Scalar);
    la::gemm_grad_weights(a, dy, dw_scalar, /*accumulate=*/false);
    la::set_gemm_isa(la::GemmIsa::Avx2);
    la::gemm_grad_weights(a, dy, dw_avx2, /*accumulate=*/false);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(dw_scalar(kk, j), dw_avx2(kk, j), 1e-12);
      }
    }
  }
}

TEST(GemmBackward, NarrowGradWeightsMatchFmaChainBitwise) {
  // Fewer than four dy columns (a 96->1 head) run down dW rows; per element
  // the result is the i-ascending fused multiply-add chain, bit for bit.
  if (!la::gemm_avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  IsaGuard guard;
  la::set_gemm_isa(la::GemmIsa::Avx2);
  common::Rng rng(707);
  for (const std::size_t n : {1, 2, 3, 11}) {
    for (const std::size_t k : {1, 7, 23, 37}) {
      for (const std::size_t m : {1, 5, 96}) {
        const la::Matrix a = random_matrix(m, k, rng);
        const la::Matrix dy = random_matrix(m, n, rng);
        la::Matrix dw = random_matrix(k, n, rng);  // accumulated onto
        la::Matrix expected = dw;
        for (std::size_t kk = 0; kk < k; ++kk) {
          for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t i = 0; i < m; ++i) {
              expected(kk, j) = std::fma(a(i, kk), dy(i, j), expected(kk, j));
            }
          }
        }
        la::gemm_grad_weights(a, dy, dw, /*accumulate=*/true);
        for (std::size_t i = 0; i < dw.size(); ++i) {
          ASSERT_EQ(dw.data()[i], expected.data()[i])
              << m << "x" << k << "x" << n << " element " << i;
        }
      }
    }
  }
}

TEST(GemmBackward, PackTransposedComputesGradInput) {
  common::Rng rng(303);
  for (const auto [m, in, out] :
       {std::array<std::size_t, 3>{4, 6, 5}, {19, 33, 24}, {48, 64, 96}}) {
    const la::Matrix w = random_matrix(in, out, rng);  // forward weight
    const la::Matrix dy = random_matrix(m, out, rng);
    la::PackedB packed;
    packed.pack_transposed(w);  // represents w^T without materializing it
    la::Matrix dx(m, in, 0.0);
    la::gemm_packed(dy, packed, dx, la::GemmEpilogue{});
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t c = 0; c < in; ++c) {
        double acc = 0.0;
        for (std::size_t j = 0; j < out; ++j) acc += dy(i, j) * w(c, j);
        EXPECT_NEAR(dx(i, c), acc, 1e-12);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused Adam.

void reference_adam(std::vector<double>& value, std::vector<double>& m,
                    std::vector<double>& v, const std::vector<double>& grad,
                    const la::AdamStepConstants& c) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    const double g = grad[i];
    m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g;
    v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g * g;
    const double m_hat = m[i] / c.bias_corr1;
    const double v_hat = v[i] / c.bias_corr2;
    value[i] -= c.lr * (m_hat / (std::sqrt(v_hat) + c.eps) +
                        c.weight_decay * value[i]);
  }
}

void run_fused_adam_trajectory(la::GemmIsa isa) {
  IsaGuard guard;
  la::set_gemm_isa(isa);
  common::Rng rng(404);
  const std::size_t n = 1037;  // odd size exercises the SIMD tail
  std::vector<double> value(n), ref_value(n);
  std::vector<double> m(n, 0.0), ref_m(n, 0.0);
  std::vector<double> v(n, 0.0), ref_v(n, 0.0);
  std::vector<double> grad(n);
  for (std::size_t i = 0; i < n; ++i) ref_value[i] = value[i] = rng.normal();
  for (std::size_t t = 1; t <= 100; ++t) {
    for (auto& g : grad) g = rng.normal();
    la::AdamStepConstants c;
    c.lr = 2e-4;
    c.beta1 = 0.5;
    c.beta2 = 0.999;
    c.eps = 1e-8;
    c.weight_decay = 1e-6;
    c.bias_corr1 = 1.0 - std::pow(c.beta1, static_cast<double>(t));
    c.bias_corr2 = 1.0 - std::pow(c.beta2, static_cast<double>(t));
    la::fused_adam_update(value.data(), m.data(), v.data(), grad.data(), n, c);
    reference_adam(ref_value, ref_m, ref_v, grad, c);
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Bitwise: the fused kernel IS the reference update, in IEEE op order.
    ASSERT_EQ(value[i], ref_value[i]) << "value diverged at " << i;
    ASSERT_EQ(m[i], ref_m[i]) << "m diverged at " << i;
    ASSERT_EQ(v[i], ref_v[i]) << "v diverged at " << i;
  }
}

TEST(FusedAdam, ScalarMatchesReferenceBitwise) {
  run_fused_adam_trajectory(la::GemmIsa::Scalar);
}

TEST(FusedAdam, Avx2MatchesReferenceBitwise) {
  if (!la::gemm_avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  run_fused_adam_trajectory(la::GemmIsa::Avx2);
}

TEST(FusedAdam, PoolStepMatchesSerialSweepBitwise) {
  // Adam::step sweeps every parameter in one pool region.  Sized so each
  // chunk boundary falls inside a parameter and off the 4-wide AVX2 grid.
  const std::size_t parts = common::ThreadPool::global().concurrency();
  if (parts == 1) GTEST_SKIP() << "one-participant pool: regions run inline";
  const std::size_t chunk = 8193;  // the pool's chunk: total / parts
  const std::size_t total = parts * chunk;
  ASSERT_GE(total, la::kParallelAdamElements);
  const std::vector<std::size_t> sizes = {chunk + 2, total - chunk - 7, 5};
  ASSERT_NE(chunk % 4, 0u);
  ASSERT_NE((2 * chunk - sizes[0]) % 4, 0u);

  common::Rng rng(808);
  std::vector<std::unique_ptr<nn::Parameter>> owned;
  std::vector<nn::Parameter*> params;
  std::vector<std::vector<double>> ref_value;
  std::vector<std::vector<double>> ref_m;
  std::vector<std::vector<double>> ref_v;
  for (const std::size_t size : sizes) {
    owned.push_back(
        std::make_unique<nn::Parameter>(random_matrix(1, size, rng)));
    params.push_back(owned.back().get());
    const auto& v = owned.back()->value.data();
    ref_value.emplace_back(v.begin(), v.end());
    ref_m.emplace_back(size, 0.0);
    ref_v.emplace_back(size, 0.0);
  }

  nn::Adam adam(params, 1e-3, 0.9, 0.999, 1e-8, 1e-6);
  for (int t = 1; t <= 3; ++t) {
    for (nn::Parameter* p : params) {
      for (auto& g : p->grad.data()) g = rng.normal();
    }
    adam.step();
    la::AdamStepConstants c;
    c.lr = 1e-3;
    c.beta1 = 0.9;
    c.beta2 = 0.999;
    c.eps = 1e-8;
    c.weight_decay = 1e-6;
    c.bias_corr1 = 1.0 - std::pow(c.beta1, static_cast<double>(t));
    c.bias_corr2 = 1.0 - std::pow(c.beta2, static_cast<double>(t));
    for (std::size_t i = 0; i < params.size(); ++i) {
      la::fused_adam_update(ref_value[i].data(), ref_m[i].data(),
                            ref_v[i].data(), params[i]->grad.data().data(),
                            sizes[i], c);
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto& v = params[i]->value.data();
    for (std::size_t j = 0; j < sizes[i]; ++j) {
      ASSERT_EQ(v[j], ref_value[i][j]) << "parameter " << i << " element " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Fit determinism across thread counts.

struct GanFixture {
  la::Matrix x_inv;
  la::Matrix x_var;
  std::vector<std::int64_t> labels;
};

GanFixture make_gan_fixture(std::size_t n, std::size_t inv, std::size_t var) {
  common::Rng rng(505);
  GanFixture f;
  f.x_inv = la::Matrix(n, inv, 0.0);
  f.x_var = la::Matrix(n, var, 0.0);
  for (auto& v : f.x_inv.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : f.x_var.data()) v = rng.uniform(-1.0, 1.0);
  f.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) f.labels[i] = static_cast<int>(i % 3);
  return f;
}

core::CganOptions tiny_gan_options() {
  core::CganOptions o;
  o.hidden = {16, 16};
  o.epochs = 3;
  o.batch_size = 64;
  return o;
}

void expect_params_bitwise_equal(nn::Sequential* a, nn::Sequential* b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    ASSERT_EQ(pa[p]->value.rows(), pb[p]->value.rows());
    ASSERT_EQ(pa[p]->value.cols(), pb[p]->value.cols());
    const auto& da = pa[p]->value.data();
    const auto& db = pb[p]->value.data();
    for (std::size_t i = 0; i < da.size(); ++i) {
      ASSERT_EQ(da[i], db[i]) << "param " << p << " element " << i;
    }
  }
}

TEST(CganSchedule, SkippingDiscriminatorGradsInGStepKeepsTrajectory) {
  // The generator step only consumes dX of the discriminator backward; its
  // dW/db were zeroed before the next D step without ever being read.
  // Skipping them must therefore keep the training trajectory within
  // 1e-12 of the old schedule -- and since dX is computed by the same
  // kernels either way, it is in fact bitwise identical.
  const GanFixture f = make_gan_fixture(128, 6, 8);
  core::CganOptions skip_opts = tiny_gan_options();
  skip_opts.skip_d_grads_in_g_step = true;
  core::CganOptions full_opts = tiny_gan_options();
  full_opts.skip_d_grads_in_g_step = false;

  core::ConditionalGAN skip_gan(6, 8, skip_opts, 99);
  core::ConditionalGAN full_gan(6, 8, full_opts, 99);
  skip_gan.fit(f.x_inv, f.x_var, f.labels, 3);
  full_gan.fit(f.x_inv, f.x_var, f.labels, 3);
  expect_params_bitwise_equal(skip_gan.generator_network(),
                              full_gan.generator_network());
}

TEST(PoolRegions, CganFitOnCallerMatchesFitInsidePoolTask) {
  // On the caller, a step's pass and Adam regions split across the pool;
  // inside a pool task every region runs inline.  Sized so all of them
  // cross their split thresholds.
  const std::size_t inv = 32;
  const std::size_t var = 40;
  const GanFixture f = make_gan_fixture(128, inv, var);
  core::CganOptions opts;
  opts.hidden = {96, 96};
  opts.epochs = 2;
  opts.batch_size = 64;
  ASSERT_GE(opts.batch_size, 2 * la::kParallelPassRows);
  ASSERT_GE(opts.batch_size * 96 * 96, la::kParallelFlopThreshold);

  core::ConditionalGAN on_caller(inv, var, opts, 13);
  core::ConditionalGAN in_task(inv, var, opts, 13);
  on_caller.fit(f.x_inv, f.x_var, f.labels, 3);
  common::ThreadPool::global()
      .submit([&] { in_task.fit(f.x_inv, f.x_var, f.labels, 3); })
      .get();
  std::size_t g_elements = 0;
  for (const nn::Parameter* p : on_caller.generator_network()->parameters()) {
    g_elements += p->value.size();
  }
  EXPECT_GE(g_elements, la::kParallelAdamElements);
  expect_params_bitwise_equal(on_caller.generator_network(),
                              in_task.generator_network());
}

TEST(PoolRegions, VaeAndAutoencoderFitOnCallerMatchInsidePoolTask) {
  // The VAE and autoencoder steps run the same row-parallel passes and
  // Adam sweep as the CGAN; sized so the passes split across the pool.
  const std::size_t inv = 32;
  const std::size_t var = 40;
  const GanFixture f = make_gan_fixture(128, inv, var);
  const auto expect_bitwise_equal = [](const la::Matrix& a,
                                       const la::Matrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t i = 0; i < a.data().size(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
    }
  };

  core::VaeOptions vae_opts;
  vae_opts.hidden = {96, 96};
  vae_opts.epochs = 2;
  vae_opts.batch_size = 64;
  ASSERT_GE(vae_opts.batch_size, 2 * la::kParallelPassRows);
  core::VaeReconstructor vae_caller(inv, var, vae_opts, 17);
  core::VaeReconstructor vae_task(inv, var, vae_opts, 17);
  vae_caller.fit(f.x_inv, f.x_var, f.labels, 3);
  common::ThreadPool::global()
      .submit([&] { vae_task.fit(f.x_inv, f.x_var, f.labels, 3); })
      .get();
  EXPECT_TRUE(vae_caller.healthy());
  ASSERT_EQ(vae_caller.last_loss(), vae_task.last_loss());
  expect_bitwise_equal(vae_caller.reconstruct(f.x_inv),
                       vae_task.reconstruct(f.x_inv));

  core::AutoencoderOptions ae_opts;
  ae_opts.hidden = {96, 96};
  ae_opts.epochs = 2;
  ae_opts.batch_size = 64;
  ASSERT_GE(ae_opts.batch_size, 2 * la::kParallelPassRows);
  core::AutoencoderReconstructor ae_caller(inv, var, ae_opts, 19);
  core::AutoencoderReconstructor ae_task(inv, var, ae_opts, 19);
  ae_caller.fit(f.x_inv, f.x_var, f.labels, 3);
  common::ThreadPool::global()
      .submit([&] { ae_task.fit(f.x_inv, f.x_var, f.labels, 3); })
      .get();
  EXPECT_TRUE(ae_caller.healthy());
  ASSERT_EQ(ae_caller.last_loss(), ae_task.last_loss());
  expect_bitwise_equal(ae_caller.reconstruct(f.x_inv),
                       ae_task.reconstruct(f.x_inv));
}

// ---------------------------------------------------------------------------
// One stopping rule: every CGAN fit stops on the holdout-MSE plateau.

// A learnable problem: the variant block is a smooth function of the
// invariant one plus noise no generator can predict, so the holdout MSE
// falls and then flattens at the noise floor.
GanFixture make_converging_fixture(std::size_t n, std::size_t inv,
                                   std::size_t var) {
  common::Rng rng(707);
  GanFixture f;
  f.x_inv = la::Matrix(n, inv, 0.0);
  f.x_var = la::Matrix(n, var, 0.0);
  for (auto& v : f.x_inv.data()) v = rng.uniform(-1.0, 1.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < var; ++c) {
      f.x_var(r, c) = std::tanh(0.8 * f.x_inv(r, c % inv) -
                                0.5 * f.x_inv(r, (c + 1) % inv)) +
                      0.2 * rng.uniform(-1.0, 1.0);
    }
  }
  f.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    f.labels[i] = f.x_inv(i, 0) > 0.0 ? 1 : 0;
  }
  return f;
}

TEST(CganPlateau, ColdFitStopsBeforeItsBudget) {
  const GanFixture f = make_converging_fixture(256, 4, 3);
  core::CganOptions opts = core::CganOptions::quick();
  opts.hidden = {16, 16};
  opts.batch_size = 64;
  ASSERT_EQ(opts.epochs, 200u);
  core::ConditionalGAN gan(4, 3, opts, 21);
  gan.fit(f.x_inv, f.x_var, f.labels, 2);
  EXPECT_FALSE(gan.warm_started());
  EXPECT_EQ(gan.fit_retries(), 0u);
  EXPECT_GT(gan.history().size(), opts.plateau_patience);
  EXPECT_LT(gan.history().size(), opts.epochs);
}

TEST(CganPlateau, StopEpochIsThreadCountInvariant) {
  // The same fit on the caller (regions split across the pool) and inside a
  // pool task (every region inline) scores the same holdout MSE each epoch,
  // so it stops at the same epoch with the same weights.  Sized so every
  // pass and Adam region crosses its split threshold.
  const std::size_t inv = 8;
  const std::size_t var = 4;
  const GanFixture f = make_converging_fixture(128, inv, var);
  core::CganOptions opts = core::CganOptions::quick();
  opts.batch_size = 64;
  ASSERT_EQ(opts.hidden, (std::vector<std::size_t>{96, 96}));
  ASSERT_GE(opts.batch_size, 2 * la::kParallelPassRows);
  ASSERT_GE(opts.batch_size * 96 * 96, la::kParallelFlopThreshold);

  core::ConditionalGAN on_caller(inv, var, opts, 17);
  core::ConditionalGAN in_task(inv, var, opts, 17);
  on_caller.fit(f.x_inv, f.x_var, f.labels, 2);
  common::ThreadPool::global()
      .submit([&] { in_task.fit(f.x_inv, f.x_var, f.labels, 2); })
      .get();
  std::size_t g_elements = 0;
  for (const nn::Parameter* p : on_caller.generator_network()->parameters()) {
    g_elements += p->value.size();
  }
  EXPECT_GE(g_elements, la::kParallelAdamElements);
  ASSERT_LT(on_caller.history().size(), opts.epochs)
      << "the fit never reached its plateau";
  EXPECT_EQ(on_caller.history().size(), in_task.history().size());
  const la::Matrix a = on_caller.reconstruct(f.x_inv);
  const la::Matrix b = in_task.reconstruct(f.x_inv);
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations.

TEST(TrainingAllocations, SteadyStateStepAllocatesNothing) {
  common::Rng rng(606);
  nn::Sequential net;
  net.emplace<nn::Linear>(32, 64, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(64, 32, rng);
  nn::Adam opt(net.parameters(), 1e-3, 0.9, 0.999, 1e-8, 1e-6);
  nn::Workspace ws;
  const la::Matrix input = random_matrix(64, 32, rng);
  const la::Matrix target = random_matrix(64, 32, rng);
  la::Matrix grad;
  // Warm up: workspace buffers, pack panels, Adam moments, loss grad.
  for (int i = 0; i < 3; ++i) {
    opt.zero_grad();
    const la::Matrix& out = net.forward(input, /*training=*/true, ws);
    nn::mse_into(out, target, grad);
    net.backward(grad, ws);
    opt.step();
  }
  const std::size_t before = la::matrix_allocations();
  for (int i = 0; i < 1000; ++i) {
    opt.zero_grad();
    const la::Matrix& out = net.forward(input, /*training=*/true, ws);
    nn::mse_into(out, target, grad);
    net.backward(grad, ws);
    opt.step();
  }
  EXPECT_EQ(la::matrix_allocations(), before)
      << "training steps must not allocate after warm-up";

  // A batch-norm + dropout stack: split passes, barriers, mask draws and
  // the parameter-gradient stage still allocate nothing once warm.
  nn::Sequential bn_net;
  bn_net.emplace<nn::Linear>(32, 64, rng);
  bn_net.emplace<nn::ReLU>();
  bn_net.emplace<nn::BatchNorm1d>(64);
  bn_net.emplace<nn::Dropout>(0.3, rng.split(9));
  bn_net.emplace<nn::Linear>(64, 32, rng);
  nn::Adam bn_opt(bn_net.parameters(), 1e-3, 0.9, 0.999, 1e-8, 1e-6);
  nn::Workspace bn_ws;
  const auto bn_step = [&] {
    bn_opt.zero_grad();
    const la::Matrix& out = bn_net.forward(input, /*training=*/true, bn_ws);
    nn::mse_into(out, target, grad);
    bn_net.backward(grad, bn_ws);
    bn_opt.step();
  };
  for (int i = 0; i < 3; ++i) bn_step();
  const std::size_t bn_before = la::matrix_allocations();
  for (int i = 0; i < 1000; ++i) bn_step();
  EXPECT_EQ(la::matrix_allocations(), bn_before)
      << "batch-norm + dropout steps must not allocate after warm-up";
}

// A snapshot epoch copies the parameters into the snapshot the sentinel
// already holds: no matrix is allocated, and a later rollback restores the
// values of that epoch.
TEST(TrainingAllocations, SnapshotEpochAllocatesNothing) {
  common::Rng rng(607);
  nn::Sequential net;
  net.emplace<nn::Linear>(32, 64, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Linear>(64, 8, rng);
  const std::vector<nn::Parameter*> params = net.parameters();
  core::TrainingSentinel sentinel(params, common::RetryPolicy{},
                                  core::DivergenceMonitorOptions{},
                                  /*snapshot_every=*/1);
  const auto shift_all = [&](double delta) {
    for (nn::Parameter* p : params) {
      for (double& v : p->value.data()) v += delta;
      p->bump_version();
    }
  };
  shift_all(0.5);
  const std::vector<la::Matrix> at_snapshot = core::capture_parameters(params);

  const std::size_t before = la::matrix_allocations();
  ASSERT_FALSE(sentinel.observe_epoch(0, 1.0));
  EXPECT_EQ(la::matrix_allocations(), before)
      << "a snapshot epoch allocated a matrix";

  shift_all(0.25);
  ASSERT_TRUE(sentinel.observe_epoch(1, std::nan("")));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto restored = params[i]->value.data();
    const auto expected = at_snapshot[i].data();
    ASSERT_TRUE(std::equal(restored.begin(), restored.end(), expected.begin(),
                           expected.end()))
        << "rollback did not restore parameter " << i;
  }
}

}  // namespace
}  // namespace fsda
