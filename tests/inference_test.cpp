// Tests for the packed inference engine: GEMM kernel equivalence across
// ISAs and epilogues, InferencePlan-vs-layer forward equality, the
// zero-allocation serving loop, serial/threaded micro-batch determinism,
// guardrail preservation across the pipeline's predict paths, session
// parity with the layer API for every classifier x reconstructor pairing,
// and concurrent scoring through non-plan classifiers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/autoencoder.hpp"
#include "core/cgan.hpp"
#include "core/health.hpp"
#include "core/inference_session.hpp"
#include "core/pipeline.hpp"
#include "core/vae.hpp"
#include "la/gemm.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "la/view.hpp"
#include "models/forest.hpp"
#include "models/neural.hpp"
#include "models/xgb.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/feature_gate.hpp"
#include "nn/inference.hpp"
#include "nn/linear.hpp"
#include "nn/parallel_sum.hpp"
#include "nn/sequential.hpp"
#include "nn/workspace.hpp"
#include "obs/metrics.hpp"

namespace fsda {
namespace {

/// Forces a GEMM ISA for the scope of one test body.
class IsaGuard {
 public:
  explicit IsaGuard(la::GemmIsa isa) { la::set_gemm_isa(isa); }
  ~IsaGuard() { la::set_gemm_isa(la::GemmIsa::Auto); }
};

la::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  common::Rng rng(seed);
  return la::Matrix::randn(r, c, rng);
}

/// Reference epilogue: out = act(a*b + bias) via the existing kernels.
la::Matrix reference_gemm(const la::Matrix& a, const la::Matrix& b,
                          const la::Matrix& bias, la::GemmAct act,
                          double alpha) {
  la::Matrix out(a.rows(), b.cols());
  la::matmul_into(a, b, out);
  if (bias.size() > 0) la::add_row_broadcast_into(out, bias, out);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    switch (act) {
      case la::GemmAct::None:
        break;
      case la::GemmAct::ReLU:
        for (std::size_t c = 0; c < out.cols(); ++c) {
          out(r, c) = out(r, c) > 0.0 ? out(r, c) : 0.0;
        }
        break;
      case la::GemmAct::LeakyReLU:
        for (std::size_t c = 0; c < out.cols(); ++c) {
          out(r, c) = out(r, c) > 0.0 ? out(r, c) : alpha * out(r, c);
        }
        break;
      case la::GemmAct::Tanh:
        for (std::size_t c = 0; c < out.cols(); ++c) {
          out(r, c) = std::tanh(out(r, c));
        }
        break;
      case la::GemmAct::Sigmoid:
        for (std::size_t c = 0; c < out.cols(); ++c) {
          const double x = out(r, c);
          out(r, c) = x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                               : std::exp(x) / (1.0 + std::exp(x));
        }
        break;
      case la::GemmAct::Softmax: {
        double mx = out(r, 0);
        for (std::size_t c = 1; c < out.cols(); ++c) {
          mx = std::max(mx, out(r, c));
        }
        double total = 0.0;
        for (std::size_t c = 0; c < out.cols(); ++c) {
          out(r, c) = std::exp(out(r, c) - mx);
          total += out(r, c);
        }
        for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) /= total;
        break;
      }
    }
  }
  return out;
}

void expect_close(const la::Matrix& a, const la::Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// GEMM kernel layer
// ---------------------------------------------------------------------------

TEST(GemmTest, ScalarKernelMatchesMatmulWithinTolerance) {
  IsaGuard guard(la::GemmIsa::Scalar);
  // Shapes straddle the panel width (8): full panels, ragged edges, and
  // single-column outputs.  Both kernels accumulate over k ascending, but
  // the compiler's FMA grouping differs with the loop structure, so the
  // match is ULP-level rather than bitwise.
  const std::size_t shapes[][3] = {
      {1, 7, 3}, {4, 16, 8}, {5, 13, 12}, {9, 32, 17}, {3, 5, 1}, {2, 442, 30}};
  for (const auto& s : shapes) {
    const la::Matrix a = random_matrix(s[0], s[1], 11 + s[2]);
    const la::Matrix b = random_matrix(s[1], s[2], 23 + s[1]);
    la::PackedB packed;
    packed.pack(b);
    la::Matrix expect(s[0], s[2]);
    la::matmul_into(a, b, expect);
    la::Matrix got(s[0], s[2]);
    la::gemm_packed(a, packed, got);
    for (std::size_t r = 0; r < expect.rows(); ++r) {
      for (std::size_t c = 0; c < expect.cols(); ++c) {
        EXPECT_NEAR(got(r, c), expect(r, c), 1e-12)
            << "scalar packed kernel diverged at (" << r << "," << c << ") "
            << "for shape " << s[0] << "x" << s[1] << "x" << s[2];
      }
    }
  }
}

TEST(GemmTest, Avx2MatchesScalarWithinTolerance) {
  if (!la::gemm_avx2_available()) {
    GTEST_SKIP() << "AVX2+FMA not available";
  }
  const la::Matrix a = random_matrix(7, 61, 5);
  const la::Matrix b = random_matrix(61, 19, 6);
  const la::Matrix bias = random_matrix(1, 19, 7);
  la::PackedB packed;
  packed.pack(b);
  la::GemmEpilogue epi;
  epi.bias = bias.data().data();
  la::Matrix scalar_out(7, 19);
  {
    IsaGuard guard(la::GemmIsa::Scalar);
    la::gemm_packed(a, packed, scalar_out, epi);
  }
  la::Matrix avx_out(7, 19);
  {
    IsaGuard guard(la::GemmIsa::Avx2);
    la::gemm_packed(a, packed, avx_out, epi);
  }
  expect_close(avx_out, scalar_out, 1e-12);
}

TEST(GemmTest, FusedEpiloguesMatchReferenceOnBothIsas) {
  const la::GemmAct acts[] = {la::GemmAct::None,    la::GemmAct::ReLU,
                              la::GemmAct::LeakyReLU, la::GemmAct::Tanh,
                              la::GemmAct::Sigmoid, la::GemmAct::Softmax};
  const la::Matrix a = random_matrix(6, 21, 31);
  const la::Matrix b = random_matrix(21, 10, 37);
  const la::Matrix bias = random_matrix(1, 10, 41);
  la::PackedB packed;
  packed.pack(b);
  for (la::GemmAct act : acts) {
    const la::Matrix expect = reference_gemm(a, b, bias, act, 0.2);
    for (la::GemmIsa isa : {la::GemmIsa::Scalar, la::GemmIsa::Avx2}) {
      if (isa == la::GemmIsa::Avx2 && !la::gemm_avx2_available()) continue;
      IsaGuard guard(isa);
      la::GemmEpilogue epi;
      epi.bias = bias.data().data();
      epi.act = act;
      la::Matrix got(6, 10);
      la::gemm_packed(a, packed, got, epi);
      expect_close(got, expect, 1e-12);
    }
  }
}

TEST(GemmTest, StridedDestinationWritesOnlyItsBlock) {
  const la::Matrix a = random_matrix(5, 12, 3);
  const la::Matrix b = random_matrix(12, 9, 4);
  la::PackedB packed;
  packed.pack(b);
  la::Matrix expect(5, 9);
  la::matmul_into(a, b, expect);
  // Destination is an interior column block of a wider matrix.
  la::Matrix wide(5, 15, -7.0);
  la::gemm_packed(a, packed, la::MatrixView(wide).col_block(3, 9));
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 15; ++c) {
      if (c < 3 || c >= 12) {
        EXPECT_EQ(wide(r, c), -7.0) << "padding clobbered at " << r << "," << c;
      } else {
        EXPECT_NEAR(wide(r, c), expect(r, c - 3), 1e-12);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// InferencePlan vs. layer-API forward
// ---------------------------------------------------------------------------

/// Runs plan and layer forward on the same net/input and compares.
void check_plan_equals_forward(nn::Sequential& net, std::size_t in_features,
                               bool append_softmax, std::size_t rows,
                               double tol) {
  auto plan = nn::InferencePlan::compile(net, in_features, append_softmax);
  ASSERT_TRUE(plan.has_value());
  const la::Matrix x = random_matrix(rows, in_features, 97 + rows);
  nn::Workspace ws;
  la::Matrix expect = net.forward(x, /*training=*/false, ws);
  if (append_softmax) expect = nn::softmax_rows(expect);
  nn::InferenceWorkspace iws;
  la::Matrix got(rows, plan->out_features());
  plan->run(x, got, iws);
  expect_close(got, expect, tol);
}

std::unique_ptr<nn::Sequential> make_mlp(std::uint64_t seed, bool gate) {
  common::Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>();
  if (gate) net->emplace<nn::FeatureGate>(14);
  net->emplace<nn::Linear>(14, 24, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Dropout>(0.3, rng.split(1));
  net->emplace<nn::Linear>(24, 16, rng);
  net->emplace<nn::LeakyReLU>(0.1);
  net->emplace<nn::Linear>(16, 10, rng);
  net->emplace<nn::Sigmoid>();
  net->emplace<nn::Linear>(10, 4, rng);
  return net;
}

TEST(InferencePlanTest, MatchesLayerForwardAcrossActivations) {
  for (la::GemmIsa isa : {la::GemmIsa::Scalar, la::GemmIsa::Avx2}) {
    if (isa == la::GemmIsa::Avx2 && !la::gemm_avx2_available()) continue;
    IsaGuard guard(isa);
    auto net = make_mlp(12, /*gate=*/false);
    check_plan_equals_forward(*net, 14, /*append_softmax=*/false, 9, 1e-12);
    auto probs = make_mlp(13, /*gate=*/false);
    check_plan_equals_forward(*probs, 14, /*append_softmax=*/true, 9, 1e-12);
    auto gated = make_mlp(14, /*gate=*/true);
    check_plan_equals_forward(*gated, 14, /*append_softmax=*/true, 9, 1e-12);
  }
}

TEST(InferencePlanTest, GeneratorArchitectureWithBranchAndBatchNorm) {
  // The CGAN generator shape: ParallelSum(skip Linear, trunk with
  // Linear+ReLU+BatchNorm1d) followed by Tanh.
  common::Rng rng(21);
  auto trunk = std::make_unique<nn::Sequential>();
  trunk->emplace<nn::Linear>(18, 20, rng);
  trunk->emplace<nn::ReLU>();
  trunk->emplace<nn::BatchNorm1d>(20);
  trunk->emplace<nn::Linear>(20, 6, rng);
  auto skip = std::make_unique<nn::Linear>(18, 6, rng);
  nn::Sequential net;
  net.add(std::make_unique<nn::ParallelSum>(std::move(skip), std::move(trunk)));
  net.emplace<nn::Tanh>();
  // Advance batch-norm running stats so the inference form is non-trivial.
  {
    nn::Workspace ws;
    const la::Matrix warm = random_matrix(32, 18, 77);
    (void)net.forward(warm, /*training=*/true, ws);
  }
  for (la::GemmIsa isa : {la::GemmIsa::Scalar, la::GemmIsa::Avx2}) {
    if (isa == la::GemmIsa::Avx2 && !la::gemm_avx2_available()) continue;
    IsaGuard guard(isa);
    check_plan_equals_forward(net, 18, /*append_softmax=*/false, 7, 1e-12);
  }
  // And with a strided destination: the plan writes straight into an
  // interior column block, as the serving path does for the variant block.
  auto plan = nn::InferencePlan::compile(net, 18, false);
  ASSERT_TRUE(plan.has_value());
  const la::Matrix x = random_matrix(5, 18, 88);
  nn::Workspace ws;
  const la::Matrix expect = net.forward(x, false, ws);
  la::Matrix wide(5, 10, 3.5);
  nn::InferenceWorkspace iws;
  plan->run(x, la::MatrixView(wide).col_block(2, 6), iws);
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(wide(r, 0), 3.5);
    EXPECT_EQ(wide(r, 9), 3.5);
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_NEAR(wide(r, c + 2), expect(r, c), 1e-12);
    }
  }
}

TEST(InferencePlanTest, UnsupportedLayerYieldsNullopt) {
  /// A layer kind the compiler does not know.
  class Unknown : public nn::Layer {
   public:
    const la::Matrix& stage_forward(const la::Matrix& input, bool,
                                    nn::Workspace& ws, nn::Pass& pass)
        override {
      pass.barrier();
      la::Matrix& out = ws.buffer(this, 0, input.rows(), input.cols());
      out = input;
      return out;
    }
    const la::Matrix& stage_backward(const la::Matrix& grad, nn::Workspace&,
                                     nn::Pass&) override {
      return grad;
    }
    [[nodiscard]] std::string name() const override { return "Unknown"; }
  };
  common::Rng rng(3);
  nn::Sequential net;
  net.emplace<nn::Linear>(4, 4, rng);
  net.emplace<Unknown>();
  EXPECT_FALSE(nn::InferencePlan::compile(net, 4, false).has_value());
  // Width mismatch is also rejected.
  nn::Sequential ok;
  ok.emplace<nn::Linear>(4, 4, rng);
  EXPECT_FALSE(nn::InferencePlan::compile(ok, 5, false).has_value());
  EXPECT_TRUE(nn::InferencePlan::compile(ok, 4, false).has_value());
}

TEST(InferencePlanTest, WarmRunIsAllocationFree) {
  auto net = make_mlp(31, /*gate=*/true);
  auto plan = nn::InferencePlan::compile(*net, 14, true);
  ASSERT_TRUE(plan.has_value());
  const la::Matrix x = random_matrix(1, 14, 55);
  la::Matrix out(1, plan->out_features());
  nn::InferenceWorkspace iws;
  plan->run(x, out, iws);  // warm: slots allocate once
  const std::size_t before = la::matrix_allocations();
  for (int i = 0; i < 100; ++i) plan->run(x, out, iws);
  EXPECT_EQ(la::matrix_allocations(), before);
}

// ---------------------------------------------------------------------------
// Pipeline serving path
// ---------------------------------------------------------------------------

/// Small synthetic drift problem: class-dependent means everywhere, strong
/// target-side shift on the back half of the features.
data::Dataset make_source(std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t n = 120, d = 12, k = 3;
  data::Dataset ds;
  ds.x = la::Matrix(n, d);
  ds.y.resize(n);
  ds.num_classes = k;
  for (std::size_t r = 0; r < n; ++r) {
    const auto label = static_cast<std::int64_t>(r % k);
    ds.y[r] = label;
    for (std::size_t c = 0; c < d; ++c) {
      ds.x(r, c) = rng.normal() + 0.8 * static_cast<double>(label) *
                                      (c % 2 == 0 ? 1.0 : -1.0);
    }
  }
  return ds;
}

data::Dataset make_target(std::uint64_t seed) {
  data::Dataset ds = make_source(seed);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    for (std::size_t c = 6; c < ds.num_features(); ++c) {
      ds.x(r, c) = 3.0 * ds.x(r, c) + 2.5;  // drifted block
    }
  }
  return ds;
}

core::FsGanPipeline make_pipeline(
    std::uint64_t seed,
    core::QuarantinePolicy quarantine = core::QuarantinePolicy::Impute) {
  models::NeuralOptions nopt;
  nopt.hidden = {16};
  nopt.epochs = 6;
  core::CganOptions gopt;
  gopt.epochs = 4;
  gopt.hidden = {16};
  core::PipelineOptions popt;
  popt.monte_carlo_m = 2;
  popt.quarantine = quarantine;
  return core::FsGanPipeline(
      [nopt](std::uint64_t s) {
        return std::make_unique<models::MLPClassifier>(s, nopt);
      },
      [gopt](std::size_t inv, std::size_t var, std::uint64_t s) {
        return std::make_unique<core::ConditionalGAN>(inv, var, gopt, s);
      },
      popt, seed);
}

enum class Clf { MLP, TNet, RF, XGB };
enum class Recon { CGAN, VAE, AE, MeanImpute, None };

/// Small-budget factory for one Table I classifier; `made` (optional)
/// receives each classifier it creates.
models::ClassifierFactory classifier_factory(
    Clf kind, const models::Classifier** made) {
  return [kind, made](std::uint64_t s) {
    std::unique_ptr<models::Classifier> c;
    switch (kind) {
      case Clf::MLP:
      case Clf::TNet: {
        models::NeuralOptions o;
        o.hidden = {16};
        o.epochs = 6;
        c = std::make_unique<models::MLPClassifier>(s, o, kind == Clf::TNet);
        break;
      }
      case Clf::RF: {
        trees::ForestOptions o;
        o.num_trees = 8;
        c = std::make_unique<models::RandomForestClassifier>(s, o);
        break;
      }
      case Clf::XGB: {
        trees::GbdtOptions o;
        o.rounds = 6;
        c = std::make_unique<models::XGBClassifier>(s, o);
        break;
      }
    }
    if (made != nullptr) *made = c.get();
    return c;
  };
}

/// Small-budget factory for one reconstructor (null for FS mode).
core::ReconstructorFactory reconstructor_factory(Recon kind) {
  switch (kind) {
    case Recon::CGAN: {
      core::CganOptions o;
      o.epochs = 4;
      o.hidden = {16};
      return [o](std::size_t inv, std::size_t var, std::uint64_t s) {
        return std::make_unique<core::ConditionalGAN>(inv, var, o, s);
      };
    }
    case Recon::VAE: {
      core::VaeOptions o;
      o.epochs = 4;
      o.hidden = {16};
      return [o](std::size_t inv, std::size_t var, std::uint64_t s) {
        return std::make_unique<core::VaeReconstructor>(inv, var, o, s);
      };
    }
    case Recon::AE: {
      core::AutoencoderOptions o;
      o.epochs = 4;
      o.hidden = {16};
      return [o](std::size_t inv, std::size_t var, std::uint64_t s) {
        return std::make_unique<core::AutoencoderReconstructor>(inv, var, o,
                                                                s);
      };
    }
    case Recon::MeanImpute:
      return [](std::size_t, std::size_t, std::uint64_t) {
        return std::make_unique<core::MeanImputeReconstructor>();
      };
    case Recon::None:
      break;
  }
  return nullptr;
}

/// FS+X pipeline over one pairing (FS mode for Recon::None), M = 2 draws.
core::FsGanPipeline make_pairing(Clf clf, Recon recon,
                                 const models::Classifier** made) {
  core::PipelineOptions popt;
  popt.monte_carlo_m = 2;
  popt.use_reconstruction = recon != Recon::None;
  return core::FsGanPipeline(classifier_factory(clf, made),
                             reconstructor_factory(recon), popt, 9);
}

/// predict_proba of a trained pipeline recomputed from the layer API: the
/// scoring body's guardrails (scale, zero non-finite cells, clamp), then
/// Reconstructor::reconstruct and Classifier::predict_proba per draw.
la::Matrix layer_reference(const core::FsGanPipeline& pipeline,
                           const models::Classifier& clf,
                           const la::Matrix& x_raw) {
  la::Matrix x = pipeline.scaler().transform(x_raw);
  for (double& v : x.data()) {
    if (!std::isfinite(v)) v = 0.0;
  }
  pipeline.scaler().clamp_transformed(x, pipeline.options().clamp_margin);
  const core::GenerationPtr gen = pipeline.active_generation();
  if (gen->reconstructor == nullptr) {
    return clf.predict_proba(x.select_cols(pipeline.trained_order()));
  }
  const la::Matrix x_inv = x.select_cols(gen->separation.invariant);
  const std::size_t draws = pipeline.options().monte_carlo_m;
  la::Matrix proba;
  for (std::size_t m = 0; m < draws; ++m) {
    const la::Matrix p =
        clf.predict_proba(x_inv.hcat(gen->reconstructor->reconstruct(x_inv)));
    if (m == 0) proba = p;
    else proba += p;
  }
  proba *= 1.0 / static_cast<double>(draws);
  return proba;
}

TEST(InferenceSessionTest, EveryPairingMatchesTheLayerApi) {
  // Table I's classifiers x Table II's reconstructors (plus the MeanImpute
  // fallback and FS mode): each trained pipeline serves through a session,
  // and its predictions match a twin pipeline's layer-API forward.
  const data::Dataset source = make_source(100);
  const data::Dataset shots = make_target(200);
  la::Matrix test = make_target(300).x;
  // A quarantined row and an out-of-envelope value exercise the guardrails.
  test(1, 4) = std::numeric_limits<double>::quiet_NaN();
  test(2, 7) = 1e9;
  for (const Clf clf : {Clf::MLP, Clf::TNet, Clf::RF, Clf::XGB}) {
    for (const Recon recon : {Recon::CGAN, Recon::VAE, Recon::AE,
                              Recon::MeanImpute, Recon::None}) {
      SCOPED_TRACE("classifier " + std::to_string(static_cast<int>(clf)) +
                   ", reconstructor " +
                   std::to_string(static_cast<int>(recon)));
      core::FsGanPipeline served = make_pairing(clf, recon, nullptr);
      const models::Classifier* twin_clf = nullptr;
      core::FsGanPipeline twin = make_pairing(clf, recon, &twin_clf);
      served.train(source, shots);
      twin.train(source, shots);
      ASSERT_TRUE(served.serving_plans_active());
      ASSERT_EQ(served.active_generation()->reconstructor != nullptr,
                recon != Recon::None);
      expect_close(served.predict_proba(test),
                   layer_reference(twin, *twin_clf, test), 1e-12);
      EXPECT_EQ(served.health().quarantined_rows, 1u);
      EXPECT_GT(served.health().clamped_cells, 0u);
    }
  }
}

TEST(InferenceSessionTest, TwoSlotsScoreAnXgbGenerationAtOnce) {
  // XGB has no compiled plan: its session calls the classifier's const
  // predict_proba per row chunk.  Two slots scoring at once must each
  // reproduce what they score alone.
  core::FsGanPipeline pipeline = make_pairing(Clf::XGB, Recon::CGAN, nullptr);
  pipeline.train(make_source(108), make_target(209));
  ASSERT_TRUE(pipeline.serving_plans_active());
  const la::Matrix test = make_target(308).x;
  constexpr int kIters = 8;
  const auto score = [&](std::uint64_t seed) {
    auto slot = pipeline.create_serve_slot(seed);
    std::vector<la::Matrix> out(kIters);
    for (la::Matrix& p : out) pipeline.predict_proba_serve(test, p, *slot);
    return out;
  };
  const std::vector<la::Matrix> alone_a = score(1);
  const std::vector<la::Matrix> alone_b = score(2);
  std::vector<la::Matrix> at_once_a, at_once_b;
  std::thread a([&] { at_once_a = score(1); });
  std::thread b([&] { at_once_b = score(2); });
  a.join();
  b.join();
  for (int i = 0; i < kIters; ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    expect_close(at_once_a[i], alone_a[i], 0.0);
    expect_close(at_once_b[i], alone_b[i], 0.0);
  }
}

TEST(InferenceSessionTest, SteadyStateSingleSampleLoopIsAllocationFree) {
  core::FsGanPipeline pipeline = make_pipeline(17);
  pipeline.train(make_source(101), make_target(201));
  ASSERT_TRUE(pipeline.serving_plans_active());
  const la::Matrix test = make_target(301).x;
  la::Matrix sample(1, test.cols());
  la::Matrix proba;
  for (std::size_t c = 0; c < test.cols(); ++c) sample(0, c) = test(0, c);
  // Warm the buffers, then the loop must not touch the heap.
  pipeline.predict_proba_into(sample, proba);
  pipeline.predict_proba_into(sample, proba);
  const std::size_t before = la::matrix_allocations();
  for (int i = 0; i < 10000; ++i) {
    for (std::size_t c = 0; c < test.cols(); ++c) {
      sample(0, c) = test(static_cast<std::size_t>(i) % test.rows(), c);
    }
    pipeline.predict_proba_into(sample, proba);
  }
  EXPECT_EQ(la::matrix_allocations(), before)
      << "steady-state serving loop allocated";
}

TEST(InferenceSessionTest, ServeSlotVaryingBatchSizesAreAllocationFree) {
  core::FsGanPipeline pipeline = make_pipeline(19);
  pipeline.train(make_source(105), make_target(205));
  ASSERT_TRUE(pipeline.serving_plans_active());
  const la::Matrix test = make_target(305).x;
  const std::size_t max_rows = 8;

  auto slot = pipeline.create_serve_slot(0xfeedULL);
  pipeline.reserve_serve_slot(*slot, max_rows);
  la::Matrix x(max_rows, test.cols());
  la::Matrix proba;
  // Warm every batch size once: the context pool grows to max_rows and the
  // output buffer reaches its high-water mark.
  for (std::size_t rows = 1; rows <= max_rows; ++rows) {
    x.resize(rows, test.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < test.cols(); ++c) x(r, c) = test(r, c);
    }
    pipeline.predict_proba_serve(x, proba, *slot);
  }
  // Steady state: client batch sizes keep changing, the heap stays quiet.
  const std::size_t before = la::matrix_allocations();
  for (int i = 0; i < 10000; ++i) {
    const std::size_t rows = 1 + static_cast<std::size_t>(i) % max_rows;
    x.resize(rows, test.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t src = (static_cast<std::size_t>(i) + r) % test.rows();
      for (std::size_t c = 0; c < test.cols(); ++c) x(r, c) = test(src, c);
    }
    pipeline.predict_proba_serve(x, proba, *slot);
  }
  EXPECT_EQ(la::matrix_allocations(), before)
      << "varying-batch serve loop reallocated";
}

TEST(InferenceSessionTest, SerialAndThreadedMicroBatchesAgree) {
  // On the caller, a batch of at least kParallelRows rows splits across the
  // pool; inside a pool task the same batch runs inline as one chunk.
  const data::Dataset source = make_source(102);
  const data::Dataset shots = make_target(202);
  core::FsGanPipeline threaded = make_pipeline(23);
  core::FsGanPipeline serial = make_pipeline(23);
  threaded.train(source, shots);
  serial.train(source, shots);
  ASSERT_TRUE(threaded.serving_plans_active());
  ASSERT_TRUE(serial.serving_plans_active());
  const la::Matrix test = make_target(302).x;
  ASSERT_GE(test.rows(), core::InferenceSession::kParallelRows);
  const la::Matrix p_threaded = threaded.predict_proba(test);
  const la::Matrix p_serial = common::ThreadPool::global()
                                  .submit([&] { return serial.predict_proba(test); })
                                  .get();
  ASSERT_EQ(p_threaded.rows(), p_serial.rows());
  for (std::size_t r = 0; r < p_threaded.rows(); ++r) {
    for (std::size_t c = 0; c < p_threaded.cols(); ++c) {
      EXPECT_EQ(p_threaded(r, c), p_serial(r, c))
          << "thread sharding changed the result at (" << r << "," << c << ")";
    }
  }
}

TEST(InferenceSessionTest, GuardrailsMatchAcrossPredictPaths) {
  // One batch with a NaN row and an out-of-envelope cell, scored once by
  // predict_proba_into and once by predict_proba_serve: both run the same
  // guarded body, so the guardrail counters move by the same amounts and
  // the Reject policy serves the same uniform rows.
  core::FsGanPipeline pipeline =
      make_pipeline(29, core::QuarantinePolicy::Reject);
  pipeline.train(make_source(106), make_target(206));
  ASSERT_TRUE(pipeline.serving_plans_active());
  la::Matrix test = make_target(306).x;
  test(3, 2) = std::numeric_limits<double>::quiet_NaN();
  test(5, 9) = 1e9;

  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& quarantined = registry.counter("predict.quarantined_rows_total");
  obs::Counter& clamped = registry.counter("predict.clamped_cells_total");
  obs::set_telemetry_enabled(true);
  struct Deltas {
    std::uint64_t quarantined, clamped;
  };
  const auto scored = [&](auto&& predict) {
    const std::uint64_t q0 = quarantined.value();
    const std::uint64_t c0 = clamped.value();
    predict();
    return Deltas{quarantined.value() - q0, clamped.value() - c0};
  };
  la::Matrix p_into;
  la::Matrix p_serve;
  const Deltas into =
      scored([&] { pipeline.predict_proba_into(test, p_into); });
  auto slot = pipeline.create_serve_slot(0xabcULL);
  core::BatchFacts facts;
  const Deltas serve = scored(
      [&] { facts = pipeline.predict_proba_serve(test, p_serve, *slot); });
  obs::set_telemetry_enabled(false);

  EXPECT_EQ(into.quarantined, 1u);
  EXPECT_GT(into.clamped, 0u);
  EXPECT_EQ(serve.quarantined, into.quarantined);
  EXPECT_EQ(serve.clamped, into.clamped);
  EXPECT_EQ(facts.quarantined_rows, 1u);
  EXPECT_EQ(facts.clamped_cells, into.clamped);
  EXPECT_EQ(facts.rejected_rows, 1u);
  EXPECT_EQ(pipeline.health().quarantined_rows, 1u);
  EXPECT_EQ(pipeline.health().clamped_cells, into.clamped);
  EXPECT_EQ(pipeline.health().rejected_rows, 1u);
  const double uniform = 1.0 / static_cast<double>(p_into.cols());
  for (std::size_t r = 0; r < p_into.rows(); ++r) {
    bool into_uniform = true;
    bool serve_uniform = true;
    for (std::size_t c = 0; c < p_into.cols(); ++c) {
      into_uniform = into_uniform && p_into(r, c) == uniform;
      serve_uniform = serve_uniform && p_serve(r, c) == uniform;
    }
    EXPECT_EQ(into_uniform, r == 3) << "row " << r;
    EXPECT_EQ(serve_uniform, r == 3) << "row " << r;
  }
}

TEST(InferenceSessionTest, RejectPolicyServesUniformOnPackedPath) {
  models::NeuralOptions nopt;
  nopt.hidden = {16};
  nopt.epochs = 6;
  core::PipelineOptions popt;
  popt.use_reconstruction = false;
  popt.quarantine = core::QuarantinePolicy::Reject;
  core::FsGanPipeline pipeline(
      [nopt](std::uint64_t s) {
        return std::make_unique<models::MLPClassifier>(s, nopt);
      },
      nullptr, popt, 31);
  pipeline.train(make_source(103), make_target(203));
  ASSERT_TRUE(pipeline.serving_plans_active());
  la::Matrix test = make_target(303).x;
  test(0, 0) = std::numeric_limits<double>::infinity();
  const la::Matrix proba = pipeline.predict_proba(test);
  for (std::size_t c = 0; c < proba.cols(); ++c) {
    EXPECT_DOUBLE_EQ(proba(0, c), 1.0 / static_cast<double>(proba.cols()));
  }
}

/// A classifier without a compilable network: its session calls
/// predict_proba directly.
class Constant : public models::Classifier {
 public:
  void fit(const la::Matrix&, const std::vector<std::int64_t>&,
           std::size_t num_classes, const std::vector<double>&) override {
    k_ = num_classes;
  }
  [[nodiscard]] la::Matrix predict_proba(const la::Matrix& x) const override {
    return {x.rows(), k_, 1.0 / static_cast<double>(k_)};
  }
  [[nodiscard]] std::string name() const override { return "Constant"; }

 private:
  std::size_t k_ = 2;
};

TEST(InferenceSessionTest, NonNeuralClassifierServesThroughASession) {
  // A classifier without a compilable network still gets a session.
  core::PipelineOptions popt;
  popt.use_reconstruction = false;
  core::FsGanPipeline pipeline(
      [](std::uint64_t) { return std::make_unique<Constant>(); }, nullptr,
      popt, 37);
  pipeline.train(make_source(104), make_target(204));
  EXPECT_TRUE(pipeline.serving_plans_active());
  const la::Matrix proba = pipeline.predict_proba(make_target(304).x);
  EXPECT_EQ(proba.rows(), 120u);
  EXPECT_NEAR(proba(0, 0), 1.0 / 3.0, 1e-12);
}

TEST(InferenceSessionTest, NonPlanClassifierScoresFromEveryCallerAtOnce) {
  // FS+GAN over the Constant classifier: the session runs the generator
  // plan and calls the classifier's predict_proba per row chunk.
  // predict_proba_into, two serve slots and validate_generation all score
  // at once with no lock: each holds its own context, and the two
  // reconstructor-stream contexts draw from different generations' streams
  // (ThreadSanitizer checks the rest).
  core::CganOptions gopt;
  gopt.epochs = 2;
  gopt.hidden = {16};
  core::PipelineOptions popt;
  popt.validation_rows = 30;
  core::FsGanPipeline pipeline(
      [](std::uint64_t) { return std::make_unique<Constant>(); },
      [gopt](std::size_t inv, std::size_t var, std::uint64_t s) {
        return std::make_unique<core::ConditionalGAN>(inv, var, gopt, s);
      },
      popt, 41);
  pipeline.train(make_source(107), make_target(207));
  ASSERT_TRUE(pipeline.serving_plans_active());
  ASSERT_NE(pipeline.active_generation()->reconstructor, nullptr);
  const core::CandidateOutcome candidate =
      pipeline.build_candidate_generation(make_target(208), popt.fs);
  ASSERT_NE(candidate.generation, nullptr) << candidate.reason;
  ASSERT_NE(candidate.generation->session, nullptr);

  const la::Matrix test = make_target(307).x;
  constexpr int kIters = 40;
  const auto uniform_rows = [](const la::Matrix& p) {
    for (const double v : p.data()) {
      if (std::abs(v - 1.0 / 3.0) > 1e-12) return false;
    }
    return p.rows() > 0;
  };
  std::vector<std::thread> callers;
  std::vector<int> ok(4, 0);
  callers.emplace_back([&] {
    la::Matrix proba;
    for (int i = 0; i < kIters; ++i) {
      pipeline.predict_proba_into(test, proba);
      ok[0] += uniform_rows(proba) ? 1 : 0;
    }
  });
  for (std::size_t k = 1; k <= 2; ++k) {
    callers.emplace_back([&, k] {
      auto slot = pipeline.create_serve_slot(k);
      la::Matrix proba;
      for (int i = 0; i < kIters; ++i) {
        pipeline.predict_proba_serve(test, proba, *slot);
        ok[k] += uniform_rows(proba) ? 1 : 0;
      }
    });
  }
  callers.emplace_back([&] {
    for (int i = 0; i < kIters; ++i) {
      const core::ValidationVerdict v =
          pipeline.validate_generation(candidate.generation, {});
      ok[3] += v.accuracy > 0.0 ? 1 : 0;
    }
  });
  for (std::thread& t : callers) t.join();
  for (std::size_t k = 0; k < ok.size(); ++k) {
    EXPECT_EQ(ok[k], kIters) << "caller " << k;
  }
}

}  // namespace
}  // namespace fsda
