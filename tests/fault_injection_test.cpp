// Fault-injection suite (ctest label "fault"): drives the guardrail layer
// of core/health.hpp with NaN-laden telemetry, stuck sensors, dropped
// metrics, forced training divergence, and search deadlines, and checks
// that the pipeline keeps serving finite predictions while the
// HealthReport tells the truth about what degraded.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "baselines/ours.hpp"
#include "causal/ci_test.hpp"
#include "causal/pc.hpp"
#include "common/error.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "core/cgan.hpp"
#include "core/corruption.hpp"
#include "core/health.hpp"
#include "core/pipeline.hpp"
#include "data/gen5gc.hpp"
#include "data/scaler.hpp"
#include "models/factory.hpp"
#include "nn/linear.hpp"

namespace fsda::core {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

causal::FNodeOptions fast_fs() {
  causal::FNodeOptions o;
  o.max_condition_size = 1;
  o.candidate_pool = 4;
  o.max_subsets_per_level = 8;
  return o;
}

/// CGAN options that diverge within a few epochs: the first Adam step puts
/// every weight at ~±lr, so matmul accumulations overflow to Inf/NaN.
CganOptions hostile_cgan() {
  CganOptions o = CganOptions::quick();
  o.epochs = 30;
  o.hidden = {16, 16};
  o.batch_size = 32;
  o.learning_rate = 1e155;
  o.snapshot_every = 5;
  return o;
}

// ---------------------------------------------------------------------------
// Finite scans.

TEST(FiniteScanTest, FindsEveryNonFiniteCell) {
  common::Rng rng(1);
  la::Matrix m = la::Matrix::randn(10, 7, rng);
  EXPECT_TRUE(all_finite(m));
  EXPECT_EQ(count_nonfinite(m), 0u);
  EXPECT_TRUE(nonfinite_rows(m).empty());

  m(3, 2) = kNaN;
  m(3, 6) = -kInf;
  m(7, 0) = kInf;
  EXPECT_FALSE(all_finite(m));
  EXPECT_EQ(count_nonfinite(m), 3u);
  EXPECT_EQ(nonfinite_rows(m), (std::vector<std::size_t>{3, 7}));
}

TEST(FiniteScanTest, WorksOnStridedViews) {
  common::Rng rng(2);
  la::Matrix m = la::Matrix::randn(80, 9, rng);  // > one 64-wide block
  m(5, 4) = kNaN;
  la::ConstMatrixView view = m;
  EXPECT_TRUE(all_finite(view.col_block(0, 4)));
  EXPECT_FALSE(all_finite(view.col_block(4, 5)));
  EXPECT_EQ(count_nonfinite(view.row_block(0, 6)), 1u);
  EXPECT_EQ(count_nonfinite(view.row_block(6, 74)), 0u);
}

// ---------------------------------------------------------------------------
// Retry policy.

TEST(RetryControllerTest, BudgetBackoffAndSalt) {
  common::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_factor = 0.5;
  common::RetryController retry(policy);
  EXPECT_EQ(retry.attempt(), 0u);
  EXPECT_DOUBLE_EQ(retry.backoff_scale(), 1.0);

  EXPECT_TRUE(retry.allow_retry());  // attempt 1
  EXPECT_DOUBLE_EQ(retry.backoff_scale(), 0.5);
  const std::uint64_t salt1 = retry.seed_salt();
  EXPECT_TRUE(retry.allow_retry());  // attempt 2
  EXPECT_DOUBLE_EQ(retry.backoff_scale(), 0.25);
  EXPECT_NE(retry.seed_salt(), salt1);

  EXPECT_FALSE(retry.allow_retry());  // budget of 3 attempts exhausted
  EXPECT_EQ(retry.retries_used(), 2u);
}

TEST(RetryControllerTest, BackoffScaleClampsInsteadOfOverflowing) {
  // A growth factor > 1 overflows pow() to +inf within a few hundred
  // attempts; the scale must land on the policy ceiling instead.
  common::RetryPolicy policy;
  policy.max_attempts = 500;
  policy.backoff_factor = 10.0;
  policy.max_backoff_scale = 64.0;
  common::RetryController retry(policy);
  double prev = 0.0;
  for (int i = 0; i < 450; ++i) {
    const double s = retry.backoff_scale();
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_LE(s, 64.0);
    EXPECT_GE(s, prev);  // monotone non-decreasing up to the ceiling
    prev = s;
    ASSERT_TRUE(retry.allow_retry());
  }
  EXPECT_DOUBLE_EQ(retry.backoff_scale(), 64.0);

  // Decay factors are deliberately unfloored (trainers use extreme decays
  // like 2e-159 for one-shot lr rescues): the scale underflows gracefully
  // toward 0 but stays finite and non-negative at every attempt.
  common::RetryPolicy decay;
  decay.max_attempts = 500;
  decay.backoff_factor = 0.1;
  decay.max_backoff_scale = 1e3;
  common::RetryController down(decay);
  for (int i = 0; i < 450; ++i) {
    const double s = down.backoff_scale();
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
    ASSERT_TRUE(down.allow_retry());
  }
  EXPECT_EQ(down.backoff_scale(), 0.0);  // 0.1^450 underflowed, finitely

  EXPECT_THROW(common::RetryController(
                   common::RetryPolicy{3, 0.5, 0.0, /*max_backoff_scale=*/0.5}),
               common::InvariantError);
}

TEST(RetryControllerTest, DeadlineStopsRetries) {
  common::RetryPolicy policy;
  policy.max_attempts = 100;
  policy.deadline_seconds = 1e-9;  // already expired by the first check
  common::RetryController retry(policy);
  EXPECT_FALSE(retry.allow_retry());
  EXPECT_TRUE(retry.deadline_exhausted());
}

// ---------------------------------------------------------------------------
// Divergence detection.

TEST(DivergenceMonitorTest, NonFiniteTripsImmediately) {
  DivergenceMonitor nan_monitor;
  EXPECT_FALSE(nan_monitor.observe(1.0));
  EXPECT_TRUE(nan_monitor.observe(kNaN));
  EXPECT_TRUE(nan_monitor.diverged());

  DivergenceMonitor inf_monitor;
  EXPECT_TRUE(inf_monitor.observe(kInf));
}

TEST(DivergenceMonitorTest, ExplosionNeedsSustainedPatience) {
  DivergenceMonitorOptions options;
  options.explosion_factor = 10.0;
  options.patience = 3;
  DivergenceMonitor monitor(options);
  EXPECT_FALSE(monitor.observe(1.0));
  EXPECT_FALSE(monitor.observe(100.0));
  EXPECT_FALSE(monitor.observe(100.0));
  // A recovery resets the streak...
  EXPECT_FALSE(monitor.observe(2.0));
  EXPECT_FALSE(monitor.observe(100.0));
  EXPECT_FALSE(monitor.observe(100.0));
  // ...and only the third consecutive explosion diverges.
  EXPECT_TRUE(monitor.observe(100.0));

  monitor.reset();
  EXPECT_FALSE(monitor.diverged());
  EXPECT_FALSE(monitor.observe(100.0));
}

TEST(TrainingSentinelTest, RollsBackToLastHealthySnapshot) {
  common::Rng rng(3);
  nn::Linear layer(2, 2, rng);
  const std::vector<la::Matrix> initial = capture_parameters(layer.parameters());

  common::RetryPolicy policy;
  policy.max_attempts = 2;
  TrainingSentinel sentinel(layer.parameters(), policy, {}, /*snapshot=*/1);

  // Healthy epoch 0 snapshots the (mutated) parameters.
  for (nn::Parameter* p : layer.parameters()) p->value.fill(0.5);
  const std::vector<la::Matrix> mutated = capture_parameters(layer.parameters());
  EXPECT_FALSE(sentinel.observe_epoch(0, 1.0));

  // Poison the weights, then diverge: rollback must restore the snapshot.
  for (nn::Parameter* p : layer.parameters()) p->value.fill(kNaN);
  EXPECT_TRUE(sentinel.observe_epoch(1, kNaN));
  EXPECT_TRUE(parameters_finite(layer.parameters()));
  for (std::size_t i = 0; i < mutated.size(); ++i) {
    EXPECT_TRUE(layer.parameters()[i]->value == mutated[i]);
    EXPECT_FALSE(layer.parameters()[i]->value == initial[i]);
  }
  EXPECT_EQ(sentinel.health().rollbacks, 1u);
  EXPECT_TRUE(sentinel.retry_after_divergence());
  EXPECT_FALSE(sentinel.retry_after_divergence());  // budget spent
}

// ---------------------------------------------------------------------------
// Fault-injection corruption modes.

TEST(FaultCorruptionTest, NanInjectionHitsRequestedRate) {
  common::Rng data_rng(4);
  const la::Matrix x = la::Matrix::randn(500, 8, data_rng);
  common::Rng rng(5);
  const la::Matrix corrupted = nan_corrupt(x, 0.1, rng);
  const double rate = static_cast<double>(count_nonfinite(corrupted)) /
                      static_cast<double>(x.rows() * x.cols());
  EXPECT_NEAR(rate, 0.1, 0.02);
  common::Rng rng2(5);
  EXPECT_EQ(nan_corrupt(x, 0.0, rng2), x);
}

TEST(FaultCorruptionTest, StuckSensorFreezesColumnInDistribution) {
  common::Rng data_rng(6);
  const la::Matrix x = la::Matrix::randn(100, 4, data_rng);
  common::Rng rng(7);
  const std::vector<std::size_t> cols = {1, 3};
  const la::Matrix stuck = stuck_sensor_corrupt(x, cols, rng);
  EXPECT_TRUE(all_finite(stuck));
  for (std::size_t c : cols) {
    // Frozen at one value that really occurs in the column.
    bool found = false;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      EXPECT_EQ(stuck(r, c), stuck(0, c));
      found = found || x(r, c) == stuck(0, c);
    }
    EXPECT_TRUE(found);
  }
  // Untouched columns are identical.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(stuck(r, 0), x(r, 0));
    EXPECT_EQ(stuck(r, 2), x(r, 2));
  }
}

TEST(FaultCorruptionTest, DropMetricFillsWholeColumns) {
  common::Rng data_rng(8);
  const la::Matrix x = la::Matrix::randn(50, 3, data_rng);
  const std::vector<std::size_t> cols = {2};
  const la::Matrix dropped = drop_metric_corrupt(x, cols, kNaN);
  EXPECT_EQ(count_nonfinite(dropped), 50u);
  EXPECT_EQ(nonfinite_rows(dropped).size(), 50u);
  const la::Matrix zeroed = drop_metric_corrupt(x, cols, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) EXPECT_EQ(zeroed(r, 2), 0.0);
}

// ---------------------------------------------------------------------------
// Degraded-mode fallback reconstructor.

TEST(MeanImputeReconstructorTest, ImputesClassConditionalMeans) {
  // Two classes with well-separated invariant centroids.
  const std::size_t n = 40;
  la::Matrix x_inv(n, 2), x_var(n, 1);
  std::vector<std::int64_t> labels(n);
  for (std::size_t r = 0; r < n; ++r) {
    const bool hi = r % 2 == 0;
    labels[r] = hi ? 1 : 0;
    x_inv(r, 0) = hi ? 0.8 : -0.8;
    x_inv(r, 1) = hi ? 0.6 : -0.6;
    x_var(r, 0) = hi ? 0.5 : -0.5;
  }
  MeanImputeReconstructor fallback;
  fallback.fit(x_inv, x_var, labels, 2);

  la::Matrix probe(3, 2);
  probe(0, 0) = 0.7;
  probe(0, 1) = 0.5;  // near class 1
  probe(1, 0) = -0.9;
  probe(1, 1) = -0.4;  // near class 0
  probe(2, 0) = kNaN;
  probe(2, 1) = -0.55;  // partially corrupt, still resolves to class 0
  const la::Matrix out = fallback.reconstruct(probe);
  EXPECT_TRUE(all_finite(out));
  EXPECT_NEAR(out(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(out(1, 0), -0.5, 1e-12);
  EXPECT_NEAR(out(2, 0), -0.5, 1e-12);
}

TEST(MeanImputeReconstructorTest, RefusesNonFiniteTrainingData) {
  la::Matrix x_inv(4, 2, 0.1), x_var(4, 1, 0.2);
  x_inv(1, 1) = kNaN;
  MeanImputeReconstructor fallback;
  EXPECT_THROW(fallback.fit(x_inv, x_var, {0, 0, 1, 1}, 2),
               common::InvariantError);
}

// ---------------------------------------------------------------------------
// Scaler guardrails.

TEST(ScalerGuardrailTest, FitRejectsNonFiniteAndStaysUnfitted) {
  common::Rng rng(9);
  la::Matrix x = la::Matrix::randn(20, 3, rng);
  x(11, 2) = kInf;
  data::MinMaxScaler scaler;
  EXPECT_THROW(scaler.fit(x), common::NumericError);
  EXPECT_FALSE(scaler.is_fitted());
}

TEST(ScalerGuardrailTest, ClampTransformedBoundsTheEnvelope) {
  la::Matrix train(2, 2);
  train(0, 0) = 0.0;
  train(0, 1) = -1.0;
  train(1, 0) = 10.0;
  train(1, 1) = 1.0;
  data::MinMaxScaler scaler;
  scaler.fit(train);

  la::Matrix probe(1, 2);
  probe(0, 0) = 100.0;  // far above the fitted max
  probe(0, 1) = kNaN;   // must be left untouched
  la::Matrix scaled = scaler.transform(probe);
  const std::size_t clamped = scaler.clamp_transformed(scaled, 0.25);
  EXPECT_EQ(clamped, 1u);
  EXPECT_DOUBLE_EQ(scaled(0, 0), 1.25);
  EXPECT_TRUE(std::isnan(scaled(0, 1)));
}

// ---------------------------------------------------------------------------
// Forced divergence: rollback, retry, and the degraded-mode pipeline.

/// 200 rows whose 2 variant columns are smooth functions of 3 invariant ones.
struct TanhProblem {
  la::Matrix x_inv;
  la::Matrix x_var;
  std::vector<std::int64_t> labels;
};

TanhProblem make_tanh_problem(std::uint64_t seed) {
  common::Rng rng(seed);
  TanhProblem p;
  p.x_inv = la::Matrix::randn(200, 3, rng);
  p.x_inv *= 0.5;
  p.x_var = la::Matrix(200, 2);
  p.labels.resize(200);
  for (std::size_t r = 0; r < 200; ++r) {
    p.x_var(r, 0) = std::tanh(p.x_inv(r, 0));
    p.x_var(r, 1) = std::tanh(p.x_inv(r, 1) - p.x_inv(r, 2));
    p.labels[r] = p.x_inv(r, 0) > 0 ? 1 : 0;
  }
  return p;
}

TEST(DivergenceRecoveryTest, CganRecoversAfterLrBackoff) {
  // Attempt 1 at lr 1e155 diverges almost immediately; the severe backoff
  // puts attempt 2 at a sane lr, which trains through.
  const TanhProblem p = make_tanh_problem(10);
  CganOptions options = hostile_cgan();
  options.retry.max_attempts = 3;
  options.retry.backoff_factor = 2e-159;  // lr 1e155 -> 2e-4
  ConditionalGAN gan(3, 2, options, /*seed=*/11);
  gan.fit(p.x_inv, p.x_var, p.labels, 2);

  EXPECT_TRUE(gan.healthy());
  EXPECT_TRUE(gan.train_health().diverged);
  EXPECT_GE(gan.fit_retries(), 1u);
  EXPECT_GE(gan.fit_rollbacks(), 1u);
  EXPECT_TRUE(std::isfinite(gan.train_health().final_loss));
  EXPECT_TRUE(all_finite(gan.reconstruct(p.x_inv)));
}

TEST(DivergenceRecoveryTest, RetriedAttemptStopsOnThePlateau) {
  // The retry after divergence runs under the same stopping rule as any
  // other attempt: the sane-lr attempt converges and stops on the holdout
  // plateau well inside its 200-epoch cap.
  const TanhProblem p = make_tanh_problem(12);
  CganOptions options = hostile_cgan();
  options.epochs = 200;
  options.retry.max_attempts = 3;
  options.retry.backoff_factor = 2e-159;  // lr 1e155 -> 2e-4
  ConditionalGAN gan(3, 2, options, /*seed=*/11);
  gan.fit(p.x_inv, p.x_var, p.labels, 2);

  EXPECT_TRUE(gan.healthy());
  ASSERT_GE(gan.fit_retries(), 1u);
  // history() holds the last attempt only.
  EXPECT_GT(gan.history().size(), options.plateau_patience);
  EXPECT_LT(gan.history().size(), options.epochs);
  EXPECT_TRUE(all_finite(gan.reconstruct(p.x_inv)));
}

TEST(DivergenceRecoveryTest, PipelineFallsBackToMeanImputeAndKeepsServing) {
  const data::DomainSplit split =
      data::generate_5gc(data::Gen5GCConfig::tiny());
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 5, 3);

  PipelineOptions options;
  options.fs = fast_fs();
  options.use_reconstruction = true;
  // backoff 1.0: every attempt reruns the hostile lr, so the retry budget
  // is exhausted and the pipeline must degrade to MeanImpute.
  FsGanPipeline pipeline(
      models::make_classifier_factory("mlp"),
      [](std::size_t inv_dim, std::size_t var_dim,
         std::uint64_t seed) -> ReconstructorPtr {
        CganOptions gan_options = hostile_cgan();
        gan_options.retry.max_attempts = 2;
        gan_options.retry.backoff_factor = 1.0;
        return std::make_unique<ConditionalGAN>(inv_dim, var_dim, gan_options,
                                                seed);
      },
      options, /*seed=*/11);
  pipeline.train(split.source_train, shots);

  const HealthReport& report = pipeline.health();
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.fallback_reconstructor);
  EXPECT_GE(report.reconstructor_retries, 1u);
  EXPECT_GE(report.reconstructor_rollbacks, 1u);
  EXPECT_FALSE(report.stages.empty());
  EXPECT_NE(report.to_string().find("DEGRADED"), std::string::npos);

  // Degraded-but-finite predictions keep flowing.
  const la::Matrix proba = pipeline.predict_proba(split.target_test.x);
  EXPECT_TRUE(all_finite(proba));
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double total = 0.0;
    for (double v : proba.row(r)) total += v;
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Degraded-mode inference on corrupted telemetry.

class CorruptedInferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    split_ = data::generate_5gc(data::Gen5GCConfig::tiny());
    shots_ = data::sample_few_shot(split_.target_pool, 5, 3);
  }

  FsGanPipeline make_pipeline(QuarantinePolicy policy) {
    PipelineOptions options;
    options.fs = fast_fs();
    options.use_reconstruction = true;
    options.quarantine = policy;
    FsGanPipeline pipeline(
        models::make_classifier_factory("mlp"),
        baselines::make_reconstructor_factory(baselines::ReconKind::Gan),
        options, /*seed=*/11);
    pipeline.train(split_.source_train, shots_);
    return pipeline;
  }

  void expect_valid_distributions(const la::Matrix& proba) {
    EXPECT_TRUE(all_finite(proba));
    for (std::size_t r = 0; r < proba.rows(); ++r) {
      double total = 0.0;
      for (double v : proba.row(r)) {
        EXPECT_GE(v, 0.0);
        total += v;
      }
      EXPECT_NEAR(total, 1.0, 1e-6);
    }
  }

  data::DomainSplit split_;
  data::Dataset shots_;
};

TEST_F(CorruptedInferenceTest, TenPercentNanNeverThrowsNeverEmitsNonFinite) {
  FsGanPipeline pipeline = make_pipeline(QuarantinePolicy::Impute);
  common::Rng rng(12);
  const la::Matrix dirty = nan_corrupt(split_.target_test.x, 0.1, rng);
  const std::size_t dirty_rows = nonfinite_rows(dirty).size();
  ASSERT_GT(dirty_rows, 0u);

  la::Matrix proba;
  ASSERT_NO_THROW(proba = pipeline.predict_proba(dirty));
  expect_valid_distributions(proba);
  EXPECT_EQ(pipeline.health().quarantined_rows, dirty_rows);
  EXPECT_EQ(pipeline.health().rejected_rows, 0u);
}

TEST_F(CorruptedInferenceTest, RejectPolicyServesUniformForDirtyRows) {
  FsGanPipeline pipeline = make_pipeline(QuarantinePolicy::Reject);
  common::Rng rng(13);
  const la::Matrix dirty = nan_corrupt(split_.target_test.x, 0.05, rng);
  const std::vector<std::size_t> bad = nonfinite_rows(dirty);
  ASSERT_GT(bad.size(), 0u);

  const la::Matrix proba = pipeline.predict_proba(dirty);
  expect_valid_distributions(proba);
  const double uniform = 1.0 / static_cast<double>(proba.cols());
  for (std::size_t r : bad) {
    for (double v : proba.row(r)) EXPECT_DOUBLE_EQ(v, uniform);
  }
  EXPECT_EQ(pipeline.health().rejected_rows, bad.size());
}

TEST_F(CorruptedInferenceTest, SurvivesStuckSensorsAndDroppedMetrics) {
  FsGanPipeline pipeline = make_pipeline(QuarantinePolicy::Impute);
  common::Rng rng(14);
  const std::vector<std::size_t> cols = {0, 3};

  const la::Matrix stuck =
      stuck_sensor_corrupt(split_.target_test.x, cols, rng);
  expect_valid_distributions(pipeline.predict_proba(stuck));
  EXPECT_EQ(pipeline.health().quarantined_rows, 0u);  // in-distribution fault

  const la::Matrix outage = drop_metric_corrupt(split_.target_test.x, cols, kNaN);
  expect_valid_distributions(pipeline.predict_proba(outage));
  EXPECT_EQ(pipeline.health().quarantined_rows, split_.target_test.size());
}

TEST_F(CorruptedInferenceTest, OutOfEnvelopeExtremesAreClampedNotAmplified) {
  FsGanPipeline pipeline = make_pipeline(QuarantinePolicy::Impute);
  la::Matrix extreme = split_.target_test.x;
  for (std::size_t r = 0; r < extreme.rows(); ++r) extreme(r, 1) *= 1e6;
  expect_valid_distributions(pipeline.predict_proba(extreme));
  EXPECT_GT(pipeline.health().clamped_cells, 0u);
}

TEST_F(CorruptedInferenceTest, TrainDropsNonFiniteFewShotRows) {
  data::Dataset dirty_shots = shots_;
  dirty_shots.x(0, 0) = kNaN;
  PipelineOptions options;
  options.fs = fast_fs();
  options.use_reconstruction = true;
  FsGanPipeline pipeline(
      models::make_classifier_factory("mlp"),
      baselines::make_reconstructor_factory(baselines::ReconKind::VanillaAe),
      options, /*seed=*/11);
  ASSERT_NO_THROW(pipeline.train(split_.source_train, dirty_shots));
  ASSERT_EQ(pipeline.health().stages.size(), 1u);
  EXPECT_EQ(pipeline.health().stages[0].stage, "few_shot_screen");
  EXPECT_FALSE(pipeline.health().degraded);  // screening is not a fallback

  // An all-NaN few-shot set is unrecoverable and must say so clearly.
  for (double& v : dirty_shots.x.data()) v = kNaN;
  EXPECT_THROW(pipeline.train(split_.source_train, dirty_shots),
               common::NumericError);
}

// ---------------------------------------------------------------------------
// Search deadlines.

TEST(DeadlineTest, FNodeSearchTruncatesAndStillPartitions) {
  common::Rng rng(15);
  const std::size_t d = 120;
  const la::Matrix source = la::Matrix::randn(500, d, rng);
  la::Matrix target = la::Matrix::randn(120, d, rng);
  // Shift half the features: each of the 60 marginally-dependent features
  // then runs a full (exhaustive) levelwise search over a 16-candidate
  // pool, far beyond 1 ms of Fisher-z work.
  for (std::size_t r = 0; r < target.rows(); ++r) {
    for (std::size_t c = 0; c < d / 2; ++c) target(r, c) += 3.0;
  }

  causal::FNodeOptions options;
  options.max_condition_size = 2;
  options.candidate_pool = 16;
  options.max_subsets_per_level = 0;  // exhaustive: far beyond 1 ms of work
  options.parallel = false;
  options.deadline_ms = 1;
  const causal::FNodeResult result =
      causal::find_intervention_targets(source, target, options);
  EXPECT_TRUE(result.truncated);
  // Best-so-far is still a full partition of the feature space.
  EXPECT_EQ(result.variant.size() + result.invariant.size(), d);

  // And the unbounded default never reports truncation.
  const SeparationResult sep = separate_features(
      la::Matrix::randn(100, 4, rng), la::Matrix::randn(40, 4, rng), fast_fs());
  EXPECT_FALSE(sep.truncated);
}

TEST(DeadlineTest, PcSkeletonTruncatesButStaysWellFormed) {
  // A shared latent factor correlates every variable pair, so no edge has
  // an observed separating set: the skeleton search must grind through all
  // subset levels for ~all C(40,2) edges -- far beyond 1 ms.
  common::Rng rng(16);
  la::Matrix x(300, 40);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const double g = rng.normal();
    for (std::size_t c = 0; c < x.cols(); ++c) {
      x(r, c) = g + 0.5 * rng.normal();
    }
  }
  const causal::FisherZTest test(x, 0.01);

  causal::PcOptions options;
  options.max_condition_size = 3;
  options.deadline_ms = 1;
  const causal::PcResult truncated = causal::pc_algorithm(test, options);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_EQ(truncated.graph.num_nodes(), 40u);

  causal::PcOptions unbounded;
  unbounded.max_condition_size = 1;
  const causal::PcResult full = causal::pc_algorithm(test, unbounded);
  EXPECT_FALSE(full.truncated);
  // The truncated skeleton is a superset of the full one's edges at the
  // levels it completed -- weaker but sufficient sanity: it has at least as
  // many CI tests budgeted out as the deadline allowed.
  EXPECT_GT(full.ci_tests_performed, 0u);
}

}  // namespace
}  // namespace fsda::core
