// Property tests for the re-adaptation fast path (DESIGN.md §16): the
// Gram-statistic CI engine (incremental vs batch parity, ring eviction,
// label-shift weighting, the F-node indicator assembly, the near-constant
// column guard), skeleton warm-start (full-fidelity equality with a cold
// search), the CGAN warm-start contract, the adaptation buffer's
// incremental per-class statistics, and the drift loop's warm/cold ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "baselines/ours.hpp"
#include "causal/fnode.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cgan.hpp"
#include "core/drift_loop.hpp"
#include "core/model_registry.hpp"
#include "core/pipeline.hpp"
#include "data/gen5gc.hpp"
#include "data/scaler.hpp"
#include "la/stats.hpp"
#include "models/factory.hpp"

namespace fsda {
namespace {

double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    }
  }
  return worst;
}

bool bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// GramStats: sufficient statistics vs the batch formulas

TEST(GramStatsTest, IncrementalMatchesBatchMoments) {
  common::Rng rng(42);
  const la::Matrix x = la::Matrix::randn(200, 8, rng);

  la::GramStats inc(8);
  for (std::size_t r = 0; r < x.rows(); ++r) inc.add(x.row(r));
  EXPECT_EQ(inc.dim(), 8u);
  EXPECT_DOUBLE_EQ(inc.weight(), 200.0);

  la::Matrix cov, corr;
  inc.covariance_into(cov);
  inc.correlation_into(corr);
  EXPECT_LE(max_abs_diff(cov, la::covariance(x)), 1e-12);
  EXPECT_LE(max_abs_diff(corr, la::correlation(x)), 1e-12);

  // add_rows is the same accumulation in one call.
  la::GramStats batch(8);
  batch.add_rows(x);
  EXPECT_LE(max_abs_diff(batch.correlation(), corr), 1e-14);
}

TEST(GramStatsTest, RemoveIsInverseOfAdd) {
  common::Rng rng(43);
  const la::Matrix x = la::Matrix::randn(120, 6, rng);

  // Fold in all 120 rows, then downdate the first 40 (ring eviction).
  la::GramStats evicted(6);
  evicted.add_rows(x);
  for (std::size_t r = 0; r < 40; ++r) evicted.remove(x.row(r));

  la::GramStats fresh(6);
  for (std::size_t r = 40; r < x.rows(); ++r) fresh.add(x.row(r));

  EXPECT_DOUBLE_EQ(evicted.weight(), fresh.weight());
  EXPECT_LE(max_abs_diff(evicted.correlation(), fresh.correlation()), 1e-10);
}

TEST(GramStatsTest, AddScaledMatchesIntegerReplication) {
  common::Rng rng(44);
  const la::Matrix xa = la::Matrix::randn(30, 6, rng);
  const la::Matrix xb = la::Matrix::randn(50, 6, rng);

  // Materialized label-shift correction: class a replicated 3x, class b 2x.
  la::Matrix rep(3 * 30 + 2 * 50, 6);
  std::size_t out = 0;
  for (int k = 0; k < 3; ++k) {
    for (std::size_t r = 0; r < xa.rows(); ++r, ++out) {
      for (std::size_t c = 0; c < 6; ++c) rep(out, c) = xa(r, c);
    }
  }
  for (int k = 0; k < 2; ++k) {
    for (std::size_t r = 0; r < xb.rows(); ++r, ++out) {
      for (std::size_t c = 0; c < 6; ++c) rep(out, c) = xb(r, c);
    }
  }

  la::GramStats ca(6), cb(6), total(6);
  ca.add_rows(xa);
  cb.add_rows(xb);
  total.add_scaled(ca, 3.0);
  total.add_scaled(cb, 2.0);
  EXPECT_DOUBLE_EQ(total.weight(), static_cast<double>(rep.rows()));
  EXPECT_LE(max_abs_diff(total.correlation(), la::correlation(rep)), 1e-10);

  // Fractional class weights equal weighted row accumulation exactly.
  la::GramStats frac(6), direct(6);
  frac.add_scaled(ca, 1.5);
  direct.add_rows(xa, 1.5);
  EXPECT_DOUBLE_EQ(frac.weight(), direct.weight());
  EXPECT_LE(max_abs_diff(frac.correlation(), direct.correlation()), 1e-12);
}

TEST(GramStatsTest, NearConstantColumnGuardMatchesBatchCorrelation) {
  common::Rng rng(45);
  la::Matrix x = la::Matrix::randn(100, 4, rng);
  // An exactly-representable constant column: the raw-moment centering
  // cancels to a roundoff-sized residual that the relative variance floor
  // must clamp to "constant" just like la::correlation's exact-zero guard.
  for (std::size_t r = 0; r < x.rows(); ++r) x(r, 2) = 0.5;

  la::GramStats s(4);
  s.add_rows(x);
  const la::Matrix corr = s.correlation();
  EXPECT_LE(max_abs_diff(corr, la::correlation(x)), 1e-12);
  for (std::size_t j = 0; j < 4; ++j) {
    if (j == 2) continue;
    EXPECT_EQ(corr(2, j), 0.0);
    EXPECT_EQ(corr(j, 2), 0.0);
  }
}

TEST(GramStatsTest, WithIndicatorMatchesMaterializedFNodeColumn) {
  common::Rng rng(46);
  const la::Matrix source = la::Matrix::randn(150, 5, rng);
  la::Matrix target = la::Matrix::randn(40, 5, rng);
  for (std::size_t r = 0; r < target.rows(); ++r) target(r, 1) += 3.0;

  // Materialized [source; target] with the trailing 0/1 F column.
  la::Matrix combined(190, 6);
  for (std::size_t r = 0; r < source.rows(); ++r) {
    for (std::size_t c = 0; c < 5; ++c) combined(r, c) = source(r, c);
    combined(r, 5) = 0.0;
  }
  for (std::size_t r = 0; r < target.rows(); ++r) {
    for (std::size_t c = 0; c < 5; ++c) combined(150 + r, c) = target(r, c);
    combined(150 + r, 5) = 1.0;
  }

  la::GramStats src(5), tgt(5);
  src.add_rows(source);
  tgt.add_rows(target);
  const la::GramStats with_f = la::GramStats::with_indicator(src, tgt);
  EXPECT_EQ(with_f.dim(), 6u);
  EXPECT_DOUBLE_EQ(with_f.weight(), 190.0);
  EXPECT_LE(max_abs_diff(with_f.correlation(), la::correlation(combined)),
            1e-12);
}

// ---------------------------------------------------------------------------
// F-node search: stats path parity and skeleton warm-start

/// Source/target pair with two strongly shifted features (1 and 3) and a
/// composite feature 5 = feature 0 + feature 2 + small noise in BOTH
/// domains, where 0 and 2 carry shifts small enough to stay below the
/// marginal Fisher-z threshold (so they remain in the screened conditioning
/// pool) while their sum pushes 5 over it.  The level search then removes
/// 5's F edge given a conditioning set drawn from {0, 2} -- a non-trivial
/// separating set for the warm-start probe to reconfirm.  The seed is
/// chosen so this draw yields variant = {1, 3} with at least one non-empty
/// sepset (the construction rides the test threshold by design; the rng is
/// deterministic, so the partition is too).
struct FnodeFixture {
  la::Matrix source;
  la::Matrix target;

  FnodeFixture() {
    common::Rng rng(777);
    source = la::Matrix::randn(400, 6, rng);
    const la::Matrix sn = la::Matrix::randn(400, 1, rng);
    for (std::size_t r = 0; r < source.rows(); ++r) {
      source(r, 5) = source(r, 0) + source(r, 2) + 0.05 * sn(r, 0);
    }
    target = la::Matrix::randn(120, 6, rng);
    const la::Matrix tn = la::Matrix::randn(120, 1, rng);
    for (std::size_t r = 0; r < target.rows(); ++r) {
      target(r, 1) += 4.0;
      target(r, 3) += 4.0;
      target(r, 0) += 0.3;
      target(r, 2) += 0.3;
      target(r, 5) = target(r, 0) + target(r, 2) + 0.05 * tn(r, 0);
    }
  }

  [[nodiscard]] static causal::FNodeOptions options() {
    causal::FNodeOptions o;
    o.max_condition_size = 2;
    o.candidate_pool = 4;
    o.max_subsets_per_level = 16;
    return o;
  }
};

TEST(FnodeStatsPathTest, SufficientStatisticsMatchMaterializedSearch) {
  const FnodeFixture fx;
  const causal::FNodeOptions o = FnodeFixture::options();

  const causal::FNodeResult cold =
      causal::find_intervention_targets(fx.source, fx.target, o);
  ASSERT_EQ(cold.variant.size() + cold.invariant.size(), 6u);
  EXPECT_EQ(cold.variant, (std::vector<std::size_t>{1, 3}));

  la::GramStats src(6), tgt(6);
  src.add_rows(fx.source);
  tgt.add_rows(fx.target);
  const causal::FNodeResult stats =
      causal::find_intervention_targets(src, tgt, o);

  EXPECT_EQ(stats.variant, cold.variant);
  EXPECT_EQ(stats.invariant, cold.invariant);
  EXPECT_EQ(stats.sepsets, cold.sepsets);
}

TEST(FnodeWarmStartTest, FullFidelityEqualsColdSearch) {
  const FnodeFixture fx;
  const causal::FNodeOptions cold_o = FnodeFixture::options();
  const causal::FNodeResult cold =
      causal::find_intervention_targets(fx.source, fx.target, cold_o);

  // The fixture must yield at least one level>=1 separating set, or the
  // warm probe has nothing to reconfirm and this test is vacuous.
  bool any_sepset = false;
  for (const auto& s : cold.sepsets) any_sepset = any_sepset || !s.empty();
  ASSERT_TRUE(any_sepset);

  // Passing a seed is what makes the search warm.
  causal::FNodeSeed seed;
  seed.sepsets = cold.sepsets;
  const causal::FNodeResult warm =
      causal::find_intervention_targets(fx.source, fx.target, cold_o, &seed);

  // The partition (and every separating set) is IDENTICAL to the cold run,
  // and at least one probe short-circuited its level enumeration.
  EXPECT_EQ(warm.variant, cold.variant);
  EXPECT_EQ(warm.invariant, cold.invariant);
  EXPECT_EQ(warm.sepsets, cold.sepsets);
  EXPECT_GE(warm.warm_reconfirmed, 1u);

  // Without a seed the same options run exactly the cold search.
  const causal::FNodeResult unseeded =
      causal::find_intervention_targets(fx.source, fx.target, cold_o);
  EXPECT_EQ(unseeded.variant, cold.variant);
  EXPECT_EQ(unseeded.ci_tests_performed, cold.ci_tests_performed);
}

// ---------------------------------------------------------------------------
// AdaptationBuffer: incremental per-class statistics

TEST(AdaptationBufferStatsTest, ClassStatsTrackScaledRingThroughEviction) {
  common::Rng rng(7);
  data::MinMaxScaler scaler;
  scaler.fit(la::Matrix::randn(256, 5, rng));

  core::AdaptationBuffer buf(64, 5, 3);
  buf.enable_stats(&scaler);
  ASSERT_TRUE(buf.stats_enabled());

  // Ingest 160 rows in batches of 16: 96 rows are evicted (rank-1
  // downdated) on the way through.
  for (std::size_t b = 0; b < 10; ++b) {
    const la::Matrix batch = la::Matrix::randn(16, 5, rng);
    std::vector<std::int64_t> labels(16);
    for (std::size_t r = 0; r < 16; ++r) {
      labels[r] = static_cast<std::int64_t>((b * 16 + r) % 3);
    }
    buf.ingest(batch, labels);
  }
  ASSERT_EQ(buf.size(), 64u);

  // Reference: statistics built fresh from the surviving rows.
  const data::Dataset snap = buf.snapshot();
  const la::Matrix scaled = scaler.transform(snap.x);
  for (std::size_t cls = 0; cls < 3; ++cls) {
    la::GramStats fresh(5);
    std::size_t count = 0;
    for (std::size_t r = 0; r < scaled.rows(); ++r) {
      if (snap.y[r] != static_cast<std::int64_t>(cls)) continue;
      fresh.add(scaled.row(r));
      ++count;
    }
    ASSERT_GT(count, 1u);
    EXPECT_EQ(buf.class_counts()[cls], count);
    EXPECT_NEAR(buf.class_stats()[cls].weight(), static_cast<double>(count),
                1e-9);
    EXPECT_LE(max_abs_diff(buf.class_stats()[cls].correlation(),
                           fresh.correlation()),
              1e-10);
  }
}

TEST(AdaptationBufferStatsTest, EnableStatsOnNonEmptyBufferThrows) {
  common::Rng rng(8);
  data::MinMaxScaler scaler;
  scaler.fit(la::Matrix::randn(128, 4, rng));

  // Statistics are built only incrementally, so rows ingested before
  // enable_stats would be missing from them: the buffer refuses.
  core::AdaptationBuffer buf(32, 4, 2);
  const la::Matrix batch = la::Matrix::randn(24, 4, rng);
  std::vector<std::int64_t> labels(24);
  for (std::size_t r = 0; r < 24; ++r) labels[r] = r % 2;
  buf.ingest(batch, labels);

  EXPECT_THROW(buf.enable_stats(&scaler), common::Error);
  EXPECT_FALSE(buf.stats_enabled());
}

TEST(AdaptationBufferStatsTest, SnapshotIntoIsAllocationFlatWhenWarm) {
  common::Rng rng(9);
  core::AdaptationBuffer buf(32, 6, 2);
  const la::Matrix batch = la::Matrix::randn(48, 6, rng);
  std::vector<std::int64_t> labels(48, 0);
  buf.ingest(batch, labels);

  data::Dataset snap;
  buf.snapshot_into(snap);  // first gather sizes the scratch
  ASSERT_EQ(snap.x.rows(), 32u);

  const std::size_t before = la::matrix_allocations();
  buf.snapshot_into(snap);  // same ring occupancy: must reuse capacity
  EXPECT_EQ(la::matrix_allocations(), before);
  EXPECT_EQ(snap.x.rows(), 32u);
  EXPECT_EQ(snap.y.size(), 32u);
}

// ---------------------------------------------------------------------------
// Pipeline + drift loop: warm candidate builds end to end

causal::FNodeOptions fast_fs() {
  causal::FNodeOptions o;
  o.max_condition_size = 1;
  o.candidate_pool = 4;
  o.max_subsets_per_level = 8;
  return o;
}

struct LoopFixture {
  data::DomainSplit split;
  data::Dataset shots;
  la::Matrix drifted;

  LoopFixture() {
    split = data::generate_5gc(data::Gen5GCConfig::tiny());
    shots = data::sample_few_shot(split.target_pool, 5, 3);
    drifted = split.target_test.x;
    for (std::size_t c = 0; c < 3; ++c) {
      double lo = drifted(0, c), hi = drifted(0, c);
      for (std::size_t r = 0; r < split.source_train.x.rows(); ++r) {
        lo = std::min(lo, split.source_train.x(r, c));
        hi = std::max(hi, split.source_train.x(r, c));
      }
      const double push = 2.0 * (hi - lo) + 1.0;
      for (std::size_t r = 0; r < drifted.rows(); ++r) drifted(r, c) += push;
    }
  }

  [[nodiscard]] core::FsGanPipeline make_pipeline(std::uint64_t seed) const {
    core::PipelineOptions options;
    options.fs = fast_fs();
    options.use_reconstruction = true;
    options.validation_rows = 64;
    return core::FsGanPipeline(
        models::make_classifier_factory("mlp"),
        baselines::make_reconstructor_factory(baselines::ReconKind::Gan),
        options, seed);
  }

  [[nodiscard]] core::DriftLoopOptions loop_options() const {
    core::DriftLoopOptions o;
    o.detector.window = 64;
    o.detector.min_window = 32;
    o.detector.patience = 2;
    o.detector.cooldown = 2;
    o.detector.psi_trigger = 3.0;
    o.detector.psi_clear = 1.5;
    o.detector.ks_trigger = 0.6;
    o.detector.ks_clear = 0.4;
    o.buffer_capacity = 256;
    o.min_adaptation_samples = 16;
    o.base_backoff_batches = 1;
    o.background = false;
    return o;
  }
};

la::Matrix slice_rows(const la::Matrix& m, std::size_t start, std::size_t n) {
  la::Matrix out(n, m.cols());
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t src = (start + r) % m.rows();
    for (std::size_t c = 0; c < m.cols(); ++c) out(r, c) = m(src, c);
  }
  return out;
}

std::vector<std::int64_t> slice_labels(const std::vector<std::int64_t>& y,
                                       std::size_t start, std::size_t n) {
  std::vector<std::int64_t> out(n);
  for (std::size_t r = 0; r < n; ++r) out[r] = y[(start + r) % y.size()];
  return out;
}

TEST(ReadaptPipelineTest, WarmSwitchWarmStartsAndKeepsScalerBitwise) {
  const LoopFixture fx;
  core::FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);

  // Satellite: candidate builds must NOT refit the scaler -- the fitted
  // min/max vectors stay bitwise identical across any number of builds.
  const la::Matrix mins = pipeline.scaler().mins();
  const la::Matrix maxs = pipeline.scaler().maxs();

  // The default context is the cold build: even though the same few-shot
  // rows reproduce the active partition, nothing warm-starts.
  const core::CandidateOutcome cold = pipeline.build_candidate_generation(
      fx.shots, fast_fs(), core::ReadaptContext{});
  ASSERT_NE(cold.generation, nullptr) << cold.reason;
  EXPECT_EQ(cold.generation->separation.variant,
            pipeline.active_generation()->separation.variant);
  ASSERT_NE(cold.generation->reconstructor, nullptr);
  EXPECT_FALSE(cold.generation->reconstructor->warm_started());
  EXPECT_TRUE(bitwise_equal(pipeline.scaler().mins(), mins));
  EXPECT_TRUE(bitwise_equal(pipeline.scaler().maxs(), maxs));

  // The warm switch on the same shots: the partition is unchanged, so the
  // skeleton seed applies and the reconstructor warm-starts.
  const core::CandidateOutcome warm = pipeline.build_candidate_generation(
      fx.shots, fast_fs(), core::ReadaptContext{.warm = true});
  ASSERT_NE(warm.generation, nullptr) << warm.reason;
  EXPECT_EQ(warm.generation->separation.variant,
            pipeline.active_generation()->separation.variant);
  EXPECT_EQ(warm.generation->separation.invariant,
            cold.generation->separation.invariant);
  ASSERT_NE(warm.generation->reconstructor, nullptr);
  EXPECT_TRUE(warm.generation->reconstructor->warm_started());
  EXPECT_TRUE(bitwise_equal(pipeline.scaler().mins(), mins));
  EXPECT_TRUE(bitwise_equal(pipeline.scaler().maxs(), maxs));

  // Warm candidates clear the same validation gate as cold ones.
  core::ValidationOptions vo;
  vo.min_accuracy = 0.0;
  vo.max_accuracy_drop = 1.0;
  vo.max_uniform_fraction = 1.0;
  const core::ValidationVerdict verdict =
      pipeline.validate_generation(warm.generation, vo);
  EXPECT_TRUE(verdict.ok) << verdict.reason;
}

TEST(ReadaptDriftLoopTest, WarmFastPathPromotesOnRealDrift) {
  const LoopFixture fx;
  core::FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);

  core::DriftLoopOptions options = fx.loop_options();
  options.validation.min_accuracy = 0.0;
  options.validation.max_accuracy_drop = 1.0;
  options.validation.max_uniform_fraction = 1.0;
  options.probation_batches = 2;
  options.quarantine_spike = 1.1;
  ASSERT_TRUE(options.warm_readapt);  // the fast path is the default
  core::DriftLoop loop(pipeline, options);

  la::Matrix proba;
  std::size_t served = 0;
  while (loop.stats().promotions == 0 && served < 10) {
    loop.serve(slice_rows(fx.drifted, served * 32, 32),
               slice_labels(fx.split.target_test.y, served * 32, 32), proba);
    ++served;
  }
  ASSERT_EQ(loop.stats().promotions, 1u);
  EXPECT_GE(loop.stats().warm_attempts, 1u);
  EXPECT_EQ(pipeline.active_generation()->provenance, "readapt");
  // The promoted generation carries its separating sets so the NEXT
  // re-adaptation can warm-start from it in turn.
  EXPECT_EQ(pipeline.active_generation()->separation.sepsets.size(),
            fx.split.source_train.x.cols());
}

TEST(ReadaptDriftLoopTest, RejectionFallsBackToColdAttempts) {
  const LoopFixture fx;
  core::FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);

  core::DriftLoopOptions options = fx.loop_options();
  options.validation.min_accuracy = 1.01;  // unsatisfiable: reject everything
  core::DriftLoop loop(pipeline, options);

  la::Matrix proba;
  std::size_t served = 0;
  while (loop.stats().attempts < 2 && served < 24) {
    loop.serve(slice_rows(fx.drifted, served * 32, 32),
               slice_labels(fx.split.target_test.y, served * 32, 32), proba);
    ++served;
  }
  ASSERT_GE(loop.stats().attempts, 2u);
  // Only the FIRST attempt after the trigger ran warm; every attempt after
  // a rejection dropped to the fully cold ladder.
  EXPECT_EQ(loop.stats().warm_attempts, 1u);
  EXPECT_EQ(loop.stats().promotions, 0u);
  EXPECT_EQ(pipeline.active_generation()->provenance, "train");
}

// ---------------------------------------------------------------------------
// CGAN warm-start contract

TEST(CganWarmStartTest, WarmFitUsesReducedBudgetAndCompatibilityIsChecked) {
  common::Rng rng(21);
  const std::size_t n = 96;
  const la::Matrix x_inv = la::Matrix::randn(n, 5, rng);
  const la::Matrix noise = la::Matrix::randn(n, 3, rng);
  la::Matrix x_var(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      x_var(r, c) = 0.5 * x_inv(r, c) + 0.1 * noise(r, c);
    }
  }
  std::vector<std::int64_t> labels(n);
  for (std::size_t r = 0; r < n; ++r) labels[r] = r % 2;

  core::CganOptions o;
  o.epochs = 16;
  o.batch_size = 32;
  o.hidden = {16, 16};

  core::ConditionalGAN prev(5, 3, o, 77);
  prev.fit(x_inv, x_var, labels, 2);
  ASSERT_EQ(prev.history().size(), 16u);

  // Compatible previous generation: the warm fit runs at most the reduced
  // budget (auto: max(epochs/4, min(epochs, 8)) = 8), possibly fewer via
  // the plateau early stop.
  core::ConditionalGAN warm(5, 3, o, 78);
  EXPECT_TRUE(warm.warm_start_from(prev));
  warm.fit(x_inv, x_var, labels, 2);
  EXPECT_TRUE(warm.warm_started());
  EXPECT_LE(warm.history().size(), 8u);
  EXPECT_GE(warm.history().size(), 1u);
  // The warm-started reconstructor still reconstructs finite values.
  const la::Matrix recon = warm.reconstruct(x_inv);
  for (std::size_t r = 0; r < recon.rows(); ++r) {
    for (double v : recon.row(r)) ASSERT_TRUE(std::isfinite(v));
  }

  // Dimension mismatch and unfitted donors are refused: the fit stays cold.
  core::ConditionalGAN narrow(4, 3, o, 79);
  EXPECT_FALSE(narrow.warm_start_from(prev));
  core::ConditionalGAN unfitted(5, 3, o, 80);
  core::ConditionalGAN cold(5, 3, o, 81);
  EXPECT_FALSE(cold.warm_start_from(unfitted));
  cold.fit(x_inv, x_var, labels, 2);
  EXPECT_FALSE(cold.warm_started());
  EXPECT_EQ(cold.history().size(), 16u);
}

}  // namespace
}  // namespace fsda
