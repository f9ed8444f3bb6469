// Tests for the paper's core machinery: feature separation, the
// reconstructors, corruption, and the end-to-end FS / FS+GAN pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/ours.hpp"
#include "common/error.hpp"
#include "core/autoencoder.hpp"
#include "core/cgan.hpp"
#include "core/corruption.hpp"
#include "core/feature_separation.hpp"
#include "core/health.hpp"
#include "core/pipeline.hpp"
#include "core/vae.hpp"
#include "data/gen5gc.hpp"
#include "data/scaler.hpp"
#include "eval/metrics.hpp"
#include "la/kernels.hpp"
#include "la/stats.hpp"
#include "la/view.hpp"
#include "models/factory.hpp"

namespace fsda::core {
namespace {

causal::FNodeOptions fast_fs() {
  causal::FNodeOptions o;
  o.max_condition_size = 1;
  o.candidate_pool = 4;
  o.max_subsets_per_level = 8;
  return o;
}

/// Synthetic drift: feature 0 shifted between "domains", others stable.
TEST(FeatureSeparationTest, FindsShiftedFeature) {
  common::Rng rng(1);
  const std::size_t n = 400, d = 6;
  la::Matrix source = la::Matrix::randn(n, d, rng);
  la::Matrix target = la::Matrix::randn(80, d, rng);
  for (std::size_t r = 0; r < target.rows(); ++r) target(r, 0) += 3.0;
  const SeparationResult sep = separate_features(source, target, fast_fs());
  EXPECT_EQ(sep.variant, (std::vector<std::size_t>{0}));
  EXPECT_EQ(sep.invariant.size(), d - 1);
  EXPECT_GT(sep.ci_tests_performed, 0u);
  EXPECT_LT(sep.marginal_p[0], 0.01);
}

TEST(FeatureSeparationTest, NoDriftMeansNoVariants) {
  common::Rng rng(2);
  const la::Matrix source = la::Matrix::randn(500, 5, rng);
  const la::Matrix target = la::Matrix::randn(100, 5, rng);
  const SeparationResult sep = separate_features(source, target, fast_fs());
  // At alpha = 0.01 a false positive or two can occur; most must be clean.
  EXPECT_LE(sep.variant.size(), 1u);
}

TEST(FeatureSeparationTest, MediatedShiftIsExplainedAway) {
  // Z drifts; X = Z + noise inherits the shift but is separated by
  // conditioning on Z, so only Z is the intervention target.
  common::Rng rng(3);
  const std::size_t n = 1500;
  auto gen = [&](std::size_t rows, double shift) {
    la::Matrix m(rows, 3);
    for (std::size_t r = 0; r < rows; ++r) {
      const double z = rng.normal() + shift;
      m(r, 0) = z;
      m(r, 1) = 0.95 * z + 0.3 * rng.normal();
      m(r, 2) = rng.normal();
    }
    return m;
  };
  const la::Matrix source = gen(n, 0.0);
  const la::Matrix target = gen(250, 2.0);
  causal::FNodeOptions options = fast_fs();
  options.candidate_pool = 2;
  const SeparationResult sep = separate_features(source, target, options);
  // Z (feature 0) must be flagged; X (feature 1) should be explained away
  // by conditioning on its marginally-dependent parent... which is itself
  // variant, so the pool excludes it and X stays flagged too -- the
  // conservative behaviour.  Feature 2 must stay invariant.
  EXPECT_TRUE(std::find(sep.variant.begin(), sep.variant.end(), 0u) !=
              sep.variant.end());
  EXPECT_TRUE(std::find(sep.invariant.begin(), sep.invariant.end(), 2u) !=
              sep.invariant.end());
}

TEST(SeparationQualityTest, PrecisionRecallF1) {
  const std::vector<std::size_t> detected = {0, 1, 2, 3};
  const std::vector<std::size_t> truth = {2, 3, 4, 5};
  const SeparationQuality q = score_separation(detected, truth, 10);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_DOUBLE_EQ(q.f1, 0.5);
  const SeparationQuality empty = score_separation({}, truth, 10);
  EXPECT_DOUBLE_EQ(empty.precision, 0.0);
  EXPECT_DOUBLE_EQ(empty.f1, 0.0);
}

TEST(CorruptionTest, PreservesMarginalsAndRespectsP) {
  common::Rng data_rng(4);
  la::Matrix x = la::Matrix::randn(2000, 3, data_rng);
  common::Rng rng(5);
  const la::Matrix corrupted = permute_corrupt(x, 0.3, rng);
  // Per-column mean/std approximately unchanged.
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(la::mean(corrupted.col_vector(c)),
                la::mean(x.col_vector(c)), 0.08);
    EXPECT_NEAR(la::stddev(corrupted.col_vector(c)),
                la::stddev(x.col_vector(c)), 0.08);
  }
  // About 30% of cells changed (minus self-swaps).
  std::size_t changed = 0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      changed += corrupted(r, c) != x(r, c);
    }
  }
  EXPECT_NEAR(static_cast<double>(changed) / 6000.0, 0.3, 0.04);
  // p = 0 is the identity.
  EXPECT_EQ(permute_corrupt(x, 0.0, rng), x);
}

TEST(CorruptionTest, PermuteMatchesUniformIndexReferenceLoop) {
  // The hoisted rejection bound must not change a single draw: compare with
  // the per-element bernoulli + uniform_index loop on a copy of the stream.
  common::Rng data_rng(6);
  const la::Matrix x = la::Matrix::randn(96, 13, data_rng);
  common::Rng rng(7);
  common::Rng ref_rng = rng;
  la::Matrix out;
  for (int call = 0; call < 3; ++call) {
    permute_corrupt_into(x, 0.3, rng, out);
    la::Matrix expected = x;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        if (ref_rng.bernoulli(0.3)) {
          expected(r, c) = x(ref_rng.uniform_index(x.rows()), c);
        }
      }
    }
    ASSERT_EQ(out, expected) << "call " << call;
  }
  EXPECT_EQ(rng(), ref_rng());  // both streams consumed the same draws
}

TEST(CorruptionTest, ViewFormOnColumnBlocksMatchesMatrixForm) {
  // Source and destination are column blocks of wider matrices; the view
  // form writes only its block, with the Matrix form's values and draws.
  common::Rng data_rng(8);
  la::Matrix wide = la::Matrix::randn(96, 20, data_rng);
  const la::ConstMatrixView block = la::ConstMatrixView(wide).col_block(5, 7);
  la::Matrix compact(block.rows(), block.cols());
  la::copy_into(block, compact);
  for (const double p : {0.0, 0.3}) {
    common::Rng matrix_rng(9);
    common::Rng view_rng(9);
    la::Matrix expected;
    permute_corrupt_into(compact, p, matrix_rng, expected);
    la::Matrix dest(96, 20, -7.0);
    permute_corrupt_into(block, p, view_rng,
                         la::MatrixView(dest).col_block(3, 7));
    for (std::size_t r = 0; r < dest.rows(); ++r) {
      for (std::size_t c = 0; c < dest.cols(); ++c) {
        const double want = c >= 3 && c < 10 ? expected(r, c - 3) : -7.0;
        ASSERT_EQ(dest(r, c), want) << "p " << p << " at (" << r << "," << c
                                    << ")";
      }
    }
    EXPECT_EQ(matrix_rng(), view_rng()) << "p " << p;
  }
  // Corrupting in place would read cells it has already overwritten.
  EXPECT_THROW(permute_corrupt_into(la::ConstMatrixView(wide), 0.1, data_rng,
                                    la::MatrixView(wide)),
               common::InvariantError);
}

/// Shared fixture: a tiny separable reconstruction problem where
/// x_var = 2 * x_inv[0] - x_inv[1] + small noise.
struct ReconProblem {
  la::Matrix x_inv;
  la::Matrix x_var;
  std::vector<std::int64_t> labels;
};

ReconProblem make_recon_problem(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  ReconProblem p;
  p.x_inv = la::Matrix(n, 3);
  p.x_var = la::Matrix(n, 2);
  p.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      p.x_inv(i, c) = rng.uniform(-0.8, 0.8);
    }
    p.x_var(i, 0) = std::tanh(2.0 * p.x_inv(i, 0) - p.x_inv(i, 1)) +
                    0.02 * rng.normal();
    p.x_var(i, 1) = std::tanh(p.x_inv(i, 2)) + 0.02 * rng.normal();
    p.labels[i] = p.x_inv(i, 0) > 0 ? 1 : 0;
  }
  return p;
}

double recon_rmse(Reconstructor& model, const ReconProblem& problem) {
  const la::Matrix out = model.reconstruct(problem.x_inv);
  double mse = 0.0;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      const double d = out(r, c) - problem.x_var(r, c);
      mse += d * d;
    }
  }
  return std::sqrt(mse / static_cast<double>(out.rows() * out.cols()));
}

TEST(CganTest, LearnsDeterministicMapping) {
  const ReconProblem problem = make_recon_problem(600, 6);
  CganOptions options = CganOptions::quick();
  options.epochs = 60;
  options.hidden = {32, 32};
  ConditionalGAN gan(3, 2, options, /*seed=*/9);
  gan.fit(problem.x_inv, problem.x_var, problem.labels, 2);
  EXPECT_LT(recon_rmse(gan, problem), 0.2);
  EXPECT_EQ(gan.history().size(), options.epochs);
  // Output respects the tanh range.
  const la::Matrix out = gan.reconstruct(problem.x_inv);
  EXPECT_LE(out.max_abs(), 1.0);
}

TEST(CganTest, RejectsMisuse) {
  CganOptions options = CganOptions::quick();
  ConditionalGAN gan(3, 2, options, 1);
  EXPECT_THROW(gan.reconstruct(la::Matrix(1, 3, 0.0)),
               common::InvariantError);
  EXPECT_THROW(ConditionalGAN(0, 2, options, 1), common::InvariantError);
}

TEST(VaeTest, LearnsMapping) {
  const ReconProblem problem = make_recon_problem(600, 7);
  VaeOptions options = VaeOptions::quick();
  options.epochs = 80;
  options.hidden = {32, 32};
  VaeReconstructor vae(3, 2, options, 9);
  vae.fit(problem.x_inv, problem.x_var, problem.labels, 2);
  EXPECT_LT(recon_rmse(vae, problem), 0.25);
}

TEST(AutoencoderTest, LearnsMapping) {
  const ReconProblem problem = make_recon_problem(600, 8);
  AutoencoderOptions options = AutoencoderOptions::quick();
  options.epochs = 80;
  options.hidden = {32, 32};
  AutoencoderReconstructor ae(3, 2, options, 9);
  ae.fit(problem.x_inv, problem.x_var, problem.labels, 2);
  EXPECT_LT(recon_rmse(ae, problem), 0.15);
}

// reconstruct() reads a strided view in place: on a column block of a wider
// matrix it returns what it returns on a compact copy of that block, from the
// same noise stream state.
TEST(ReconstructTest, ColumnBlockViewMatchesCompactCopy) {
  const ReconProblem problem = make_recon_problem(200, 10);
  la::Matrix wide(problem.x_inv.rows(), 8, 0.5);
  const la::MatrixView inv_block = la::MatrixView(wide).col_block(2, 3);
  la::copy_into(problem.x_inv, inv_block);
  const auto expect_same = [&](Reconstructor& model) {
    model.fit(problem.x_inv, problem.x_var, problem.labels, 2);
    common::Rng* stream = model.serving_stage().noise_stream;
    const common::Rng saved = stream != nullptr ? *stream : common::Rng();
    const la::Matrix from_copy = model.reconstruct(problem.x_inv);
    if (stream != nullptr) *stream = saved;
    const la::Matrix from_view = model.reconstruct(inv_block);
    EXPECT_EQ(from_view, from_copy) << model.name();
  };
  CganOptions gan_options = CganOptions::quick();
  gan_options.epochs = 3;
  gan_options.hidden = {16, 16};
  ConditionalGAN gan(3, 2, gan_options, 9);
  expect_same(gan);
  VaeOptions vae_options = VaeOptions::quick();
  vae_options.epochs = 3;
  vae_options.hidden = {16, 16};
  VaeReconstructor vae(3, 2, vae_options, 9);
  expect_same(vae);
  AutoencoderOptions ae_options = AutoencoderOptions::quick();
  ae_options.epochs = 3;
  ae_options.hidden = {16, 16};
  AutoencoderReconstructor ae(3, 2, ae_options, 9);
  expect_same(ae);
  MeanImputeReconstructor mean_impute;
  expect_same(mean_impute);
}

TEST(PipelineTest, EndToEndBeatsDriftOnTiny5GC) {
  const data::DomainSplit split =
      data::generate_5gc(data::Gen5GCConfig::tiny());
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 5, 3);

  PipelineOptions options;
  options.fs = fast_fs();
  options.use_reconstruction = true;
  FsGanPipeline pipeline(
      models::make_classifier_factory("mlp"),
      baselines::make_reconstructor_factory(baselines::ReconKind::Gan),
      options, /*seed=*/11);
  pipeline.train(split.source_train, shots);
  EXPECT_TRUE(pipeline.is_trained());
  EXPECT_FALSE(pipeline.separation().variant.empty());

  const auto predicted = pipeline.predict(split.target_test.x);
  const double f1 = eval::macro_f1(split.target_test.y, predicted,
                                   split.target_test.num_classes);
  EXPECT_GT(f1, 0.45);  // far above the collapsed SrcOnly baseline
}

TEST(PipelineTest, AdaptToNewTargetKeepsClassifier) {
  const data::DomainSplit split =
      data::generate_5gc(data::Gen5GCConfig::tiny());
  const data::Dataset shots_a = data::sample_few_shot(split.target_pool, 5, 3);
  const data::Dataset shots_b = data::sample_few_shot(split.target_pool, 5, 4);

  PipelineOptions options;
  options.fs = fast_fs();
  FsGanPipeline pipeline(
      models::make_classifier_factory("mlp"),
      baselines::make_reconstructor_factory(baselines::ReconKind::VanillaAe),
      options, 11);
  pipeline.train(split.source_train, shots_a);
  const double before = eval::macro_f1(
      split.target_test.y, pipeline.predict(split.target_test.x),
      split.target_test.num_classes);
  pipeline.adapt_to_new_target(shots_b);
  const double after = eval::macro_f1(
      split.target_test.y, pipeline.predict(split.target_test.x),
      split.target_test.num_classes);
  // The classifier is untouched; adaptation must not collapse performance.
  EXPECT_GT(after, before - 0.15);
}

TEST(PipelineTest, FsModeRejectsAdaptation) {
  const data::DomainSplit split =
      data::generate_5gc(data::Gen5GCConfig::tiny());
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 3, 1);
  PipelineOptions options;
  options.fs = fast_fs();
  options.use_reconstruction = false;
  FsGanPipeline pipeline(models::make_classifier_factory("mlp"), nullptr,
                         options, 1);
  pipeline.train(split.source_train, shots);
  EXPECT_THROW(pipeline.adapt_to_new_target(shots), common::InvariantError);
}

TEST(PipelineTest, LabelShiftCorrectionMatchesSourcePrior) {
  const data::DomainSplit split =
      data::generate_5gc(data::Gen5GCConfig::tiny());
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 2, 5);
  PipelineOptions options;
  options.fs = fast_fs();
  options.use_reconstruction = false;
  FsGanPipeline pipeline(models::make_classifier_factory("mlp"), nullptr,
                         options, 1);
  const data::Dataset corrected =
      pipeline.label_shift_corrected(split.source_train, shots);
  corrected.validate();
  // Balanced source + balanced shots -> correction keeps balance and size
  // is the requested ~4x resample.
  const auto counts = corrected.class_counts();
  for (std::size_t c = 1; c < counts.size(); ++c) {
    EXPECT_NEAR(static_cast<double>(counts[c]),
                static_cast<double>(counts[0]), 2.0);
  }
}

}  // namespace
}  // namespace fsda::core
