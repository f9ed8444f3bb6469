// Tests for the closed drift-response loop (core/drift_loop.hpp) and the
// generation registry it drives (core/model_registry.hpp): detector
// hysteresis, publish/rollback semantics, bad-candidate rejection leaving
// the serving path bit-identical, promotion on real drift, and concurrent
// prediction during hot swaps.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "baselines/ours.hpp"
#include "common/rng.hpp"
#include "core/drift_loop.hpp"
#include "core/model_registry.hpp"
#include "core/pipeline.hpp"
#include "data/gen5gc.hpp"
#include "models/factory.hpp"
#include "obs/journal.hpp"

namespace fsda::core {
namespace {

causal::FNodeOptions fast_fs() {
  causal::FNodeOptions o;
  o.max_condition_size = 1;
  o.candidate_pool = 4;
  o.max_subsets_per_level = 8;
  return o;
}

/// Detector options sized so one 64-row batch is half the sliding window
/// and the thresholds clear the small-window noise floor: with a 128-row
/// window a same-distribution PSI max over 4 features reaches ~0.36 while
/// a +3-sigma shift scores > 1.3 (KS: ~0.14 vs > 0.4).
DriftDetectorOptions test_detector() {
  DriftDetectorOptions d;
  d.window = 128;
  d.min_window = 128;
  d.psi_trigger = 1.0;
  d.psi_clear = 0.45;
  d.ks_trigger = 0.3;
  d.ks_clear = 0.2;
  d.patience = 2;
  d.cooldown = 3;
  return d;
}

la::Matrix shifted(const la::Matrix& m, double shift) {
  la::Matrix out = m;
  for (std::size_t r = 0; r < out.rows(); ++r) out(r, 0) += shift;
  return out;
}

/// `n` rows of `m` starting at `start`, wrapping around -- an endless
/// serving stream from a finite test set.
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

bool bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

void expect_valid_distributions(const la::Matrix& proba) {
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double total = 0.0;
    for (double v : proba.row(r)) {
      ASSERT_TRUE(std::isfinite(v));
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

// ---------------------------------------------------------------------------
// DriftDetector

TEST(DriftDetectorTest, HysteresisNoFlapping) {
  common::Rng rng(7);
  const la::Matrix reference = la::Matrix::randn(512, 4, rng);
  DriftDetector det(test_detector());
  det.fit(reference);

  std::size_t edges = 0;
  auto observe = [&](const la::Matrix& batch) {
    if (det.observe(batch)) ++edges;
  };

  // Same-distribution batches never latch.
  for (int i = 0; i < 4; ++i) observe(la::Matrix::randn(64, 4, rng));
  EXPECT_FALSE(det.latched());
  EXPECT_EQ(edges, 0u);

  // Drifted batches: first over-window only starts the streak (patience 2);
  // the second latches; further drifted batches produce NO new edges.
  observe(shifted(la::Matrix::randn(64, 4, rng), 3.0));
  EXPECT_FALSE(det.latched());
  observe(shifted(la::Matrix::randn(64, 4, rng), 3.0));
  EXPECT_TRUE(det.latched());
  EXPECT_EQ(edges, 1u);
  for (int i = 0; i < 2; ++i) observe(shifted(la::Matrix::randn(64, 4, rng), 3.0));
  EXPECT_EQ(edges, 1u);  // edge-triggered, not level-triggered

  // Clearing needs `patience` consecutive fully-under windows: the first
  // clean batch still shares the window with drifted rows.
  observe(la::Matrix::randn(64, 4, rng));
  EXPECT_TRUE(det.latched());
  observe(la::Matrix::randn(64, 4, rng));
  observe(la::Matrix::randn(64, 4, rng));
  EXPECT_FALSE(det.latched());
  EXPECT_EQ(edges, 1u);

  // Cooldown: drift immediately after a clear cannot latch for `cooldown`
  // observations, and patience must re-accrue afterwards.
  for (int i = 0; i < 3; ++i) {
    observe(shifted(la::Matrix::randn(64, 4, rng), 3.0));
    EXPECT_FALSE(det.latched());
  }
  observe(shifted(la::Matrix::randn(64, 4, rng), 3.0));
  EXPECT_FALSE(det.latched());  // patience 1 of 2 after cooldown
  observe(shifted(la::Matrix::randn(64, 4, rng), 3.0));
  EXPECT_TRUE(det.latched());
  EXPECT_EQ(edges, 2u);
}

TEST(DriftDetectorTest, SuppressSkipsScoringButKeepsIngesting) {
  common::Rng rng(8);
  DriftDetectorOptions opts = test_detector();
  opts.window = 64;
  opts.min_window = 64;
  opts.patience = 1;
  // After rebaseline the reference is only 64 rows, so the same-distribution
  // PSI noise floor rises to ~0.85; the +4-sigma drift still scores > 6.
  opts.psi_trigger = 2.0;
  opts.psi_clear = 1.0;
  DriftDetector det(opts);
  det.fit(la::Matrix::randn(512, 3, rng));

  det.suppress(2);
  EXPECT_FALSE(det.observe(shifted(la::Matrix::randn(64, 3, rng), 4.0)));
  EXPECT_EQ(det.suppressed(), 1u);
  EXPECT_FALSE(det.observe(shifted(la::Matrix::randn(64, 3, rng), 4.0)));
  EXPECT_EQ(det.suppressed(), 0u);
  // The window kept ingesting while suppressed, so the very next
  // observation scores a fully-drifted window and latches (patience 1).
  EXPECT_TRUE(det.observe(shifted(la::Matrix::randn(64, 3, rng), 4.0)));

  // Rebaseline adopts the drifted window as the new reference: the same
  // stream no longer scores as drift.
  det.rebaseline_to_window();
  EXPECT_FALSE(det.latched());
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(det.observe(shifted(la::Matrix::randn(64, 3, rng), 4.0)));
  }
}

TEST(DriftDetectorTest, TriggerAndClearEmitJournalEvents) {
  auto& rec = obs::FlightRecorder::global();
  rec.reset();
  rec.set_enabled(true);

  common::Rng rng(15);
  DriftDetector det(test_detector());
  det.fit(la::Matrix::randn(512, 4, rng));
  // Fill the 128-row window, latch (patience 2), then clear.
  det.observe(la::Matrix::randn(64, 4, rng));
  det.observe(la::Matrix::randn(64, 4, rng));
  det.observe(shifted(la::Matrix::randn(64, 4, rng), 3.0));
  det.observe(shifted(la::Matrix::randn(64, 4, rng), 3.0));
  ASSERT_TRUE(det.latched());
  det.observe(la::Matrix::randn(64, 4, rng));
  det.observe(la::Matrix::randn(64, 4, rng));
  det.observe(la::Matrix::randn(64, 4, rng));
  ASSERT_FALSE(det.latched());

  const obs::Journal j = rec.snapshot();
  rec.set_enabled(false);
  std::size_t triggers = 0;
  std::size_t clears = 0;
  for (const auto& e : j.events) {
    const std::string& name = j.name(e.name_id);
    if (name == "drift.trigger") {
      ++triggers;
      EXPECT_GT(e.value, det.options().psi_trigger);
    } else if (name == "drift.clear") {
      ++clears;
    }
  }
  EXPECT_EQ(triggers, 1u);
  EXPECT_EQ(clears, 1u);
}

// ---------------------------------------------------------------------------
// ModelRegistry

TEST(ModelRegistryTest, PublishRollbackSwapAndReset) {
  ModelRegistry registry;
  EXPECT_EQ(registry.active(), nullptr);
  EXPECT_EQ(registry.active_id(), 0u);
  EXPECT_FALSE(registry.rollback());  // nothing to roll back to

  auto a = std::make_shared<ModelGeneration>();
  a->provenance = "train";
  EXPECT_EQ(registry.publish(a), 1u);
  EXPECT_EQ(registry.active_id(), 1u);
  EXPECT_FALSE(registry.rollback());  // previous generation is null

  auto b = std::make_shared<ModelGeneration>();
  b->provenance = "readapt";
  EXPECT_EQ(registry.publish(b), 2u);
  EXPECT_EQ(registry.active_id(), 2u);

  // Rollback swaps previous/active, so a second rollback undoes the first.
  EXPECT_TRUE(registry.rollback());
  EXPECT_EQ(registry.active_id(), 1u);
  EXPECT_EQ(registry.active()->provenance, "train");
  EXPECT_TRUE(registry.rollback());
  EXPECT_EQ(registry.active_id(), 2u);

  EXPECT_EQ(registry.published_total(), 2u);
  EXPECT_EQ(registry.rollbacks_total(), 2u);

  // Reset drops both generations; ids stay monotonic.
  registry.reset();
  EXPECT_EQ(registry.active(), nullptr);
  EXPECT_FALSE(registry.rollback());
  EXPECT_EQ(registry.publish(std::make_shared<ModelGeneration>()), 3u);
}

TEST(ModelRegistryTest, RetirePreviousDropsRollbackTarget) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.retire_previous());  // nothing to retire
  registry.publish(std::make_shared<ModelGeneration>());
  EXPECT_FALSE(registry.retire_previous());  // previous is null
  registry.publish(std::make_shared<ModelGeneration>());

  EXPECT_TRUE(registry.retire_previous());
  EXPECT_EQ(registry.retired_total(), 1u);
  EXPECT_FALSE(registry.retire_previous());  // already gone
  EXPECT_EQ(registry.retired_total(), 1u);
  EXPECT_FALSE(registry.rollback());  // retired history cannot be restored
  EXPECT_EQ(registry.active_id(), 2u);

  // Publishing again restores a depth-1 history as usual.
  registry.publish(std::make_shared<ModelGeneration>());
  EXPECT_TRUE(registry.rollback());
  EXPECT_EQ(registry.active_id(), 2u);
}

// ---------------------------------------------------------------------------
// DriftLoop

struct LoopFixture {
  data::DomainSplit split;
  data::Dataset shots;
  la::Matrix drifted;  ///< target test set with three columns pushed far
                       ///< outside the source range

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

  [[nodiscard]] FsGanPipeline make_pipeline(std::uint64_t seed) const {
    PipelineOptions options;
    options.fs = fast_fs();
    options.use_reconstruction = true;
    options.validation_rows = 64;
    FsGanPipeline pipeline(
        models::make_classifier_factory("mlp"),
        baselines::make_reconstructor_factory(baselines::ReconKind::Gan),
        options, seed);
    return pipeline;
  }

  [[nodiscard]] DriftLoopOptions loop_options() const {
    DriftLoopOptions o;
    o.detector.window = 64;
    o.detector.min_window = 32;
    o.detector.patience = 2;
    o.detector.cooldown = 2;
    // Far above the small-window noise floor (a rebaselined 64-row
    // reference scored over 42 features), far below the injected drift
    // (columns pushed outside the source range score PSI > 5, KS ~ 1).
    o.detector.psi_trigger = 3.0;
    o.detector.psi_clear = 1.5;
    o.detector.ks_trigger = 0.6;
    o.detector.ks_clear = 0.4;
    o.buffer_capacity = 256;
    o.min_adaptation_samples = 16;
    o.base_backoff_batches = 1;
    o.background = false;  // deterministic: adaptation runs inline
    return o;
  }
};

TEST(DriftLoopTest, BadCandidateRejectionKeepsServingBitwise) {
  const LoopFixture fx;
  // Twin pipelines, identical seeds: `looped` runs the drift loop with a
  // validation gate no candidate can pass; `plain` never adapts.  As long
  // as rejection leaves the serving path untouched, both serve the exact
  // same GAN noise stream and every batch is bit-identical.
  FsGanPipeline looped = fx.make_pipeline(11);
  FsGanPipeline plain = fx.make_pipeline(11);
  looped.train(fx.split.source_train, fx.shots);
  plain.train(fx.split.source_train, fx.shots);
  ASSERT_EQ(looped.registry().active_id(), 1u);

  DriftLoopOptions options = fx.loop_options();
  options.validation.min_accuracy = 1.01;  // unsatisfiable: reject everything
  DriftLoop loop(looped, options);

  la::Matrix proba_a, proba_b;
  for (std::size_t i = 0; i < 8; ++i) {
    const la::Matrix batch = slice_rows(fx.drifted, i * 32, 32);
    const auto labels = slice_labels(fx.split.target_test.y, i * 32, 32);
    loop.serve(batch, labels, proba_a);
    plain.predict_proba_into(batch, proba_b);
    EXPECT_TRUE(bitwise_equal(proba_a, proba_b)) << "batch " << i;
    expect_valid_distributions(proba_a);
  }

  EXPECT_GE(loop.stats().triggers, 1u);
  EXPECT_GE(loop.stats().attempts, 1u);
  EXPECT_GE(loop.stats().rejections, 1u);
  EXPECT_EQ(loop.stats().promotions, 0u);
  EXPECT_FALSE(loop.stats().last_reason.empty());
  // The original generation is still the one serving.
  EXPECT_EQ(looped.registry().active_id(), 1u);
  EXPECT_EQ(looped.registry().published_total(), 1u);
  EXPECT_EQ(looped.active_generation()->provenance, "train");
}

TEST(DriftLoopTest, PromotesValidatedGenerationOnRealDrift) {
  const LoopFixture fx;
  FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);

  DriftLoopOptions options = fx.loop_options();
  options.validation.min_accuracy = 0.0;  // accept any healthy candidate
  options.validation.max_accuracy_drop = 1.0;
  options.validation.max_uniform_fraction = 1.0;
  options.probation_batches = 2;
  options.quarantine_spike = 1.1;  // a rate in [0,1] can never trip this
  DriftLoop loop(pipeline, options);

  la::Matrix proba;
  std::size_t served = 0;
  while (loop.stats().promotions == 0 && served < 10) {
    const la::Matrix batch = slice_rows(fx.drifted, served * 32, 32);
    const auto labels = slice_labels(fx.split.target_test.y, served * 32, 32);
    loop.serve(batch, labels, proba);
    expect_valid_distributions(proba);
    ++served;
  }
  ASSERT_EQ(loop.stats().promotions, 1u);
  EXPECT_EQ(pipeline.registry().active_id(), 2u);
  EXPECT_EQ(pipeline.active_generation()->provenance, "readapt");
  EXPECT_EQ(loop.stats().rollbacks, 0u);
  EXPECT_EQ(loop.state(), DriftState::Probation);

  // After promotion the detector is rebaselined to the drifted window: the
  // same (still-drifted) stream must not re-trigger, and probation passes
  // without a quarantine spike.
  const std::uint64_t triggers_at_promo = loop.stats().triggers;
  for (std::size_t i = 0; i < 4; ++i) {
    const la::Matrix batch = slice_rows(fx.drifted, (served + i) * 32, 32);
    const auto labels =
        slice_labels(fx.split.target_test.y, (served + i) * 32, 32);
    loop.serve(batch, labels, proba);
    expect_valid_distributions(proba);
  }
  EXPECT_EQ(loop.stats().triggers, triggers_at_promo);
  EXPECT_EQ(loop.stats().promotions, 1u);
  EXPECT_EQ(loop.state(), DriftState::Stable);

  // Passing probation retires the depth-1 history eagerly: the superseded
  // generation's session is freed and rollback past probation is off the
  // table.
  EXPECT_EQ(pipeline.registry().retired_total(), 1u);
  EXPECT_FALSE(pipeline.registry().rollback());
  EXPECT_EQ(pipeline.registry().active_id(), 2u);
}

TEST(DriftLoopTest, TriggerWithEmptyBufferSkipsAdaptation) {
  const LoopFixture fx;
  FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);

  DriftLoopOptions options = fx.loop_options();
  options.min_adaptation_samples = 64;
  DriftLoop loop(pipeline, options);

  // Serve drifted batches WITHOUT labels: the detector fires but the
  // adaptation buffer stays empty, so no candidate build is attempted.
  la::Matrix proba;
  const std::vector<std::int64_t> no_labels;
  for (std::size_t i = 0; i < 6; ++i) {
    loop.serve(slice_rows(fx.drifted, i * 32, 32), no_labels, proba);
  }
  EXPECT_GE(loop.stats().triggers, 1u);
  EXPECT_GE(loop.stats().skipped_no_samples, 1u);
  EXPECT_EQ(loop.stats().attempts, 0u);
  EXPECT_EQ(pipeline.registry().active_id(), 1u);
}

TEST(DriftLoopTest, ConcurrentPredictDuringHotSwapStress) {
  const LoopFixture fx;
  FsGanPipeline pipeline = fx.make_pipeline(11);
  pipeline.train(fx.split.source_train, fx.shots);
  const CandidateOutcome second =
      pipeline.build_candidate_generation(fx.shots, pipeline.options().fs);
  ASSERT_NE(second.generation, nullptr) << second.reason;
  pipeline.promote_generation(second.generation);
  const la::Matrix batch = slice_rows(fx.split.target_test.x, 0, 32);

  // Serving thread: stream predictions continuously.  Main thread: roll the
  // registry back and forth between the two published generations, i.e.
  // hot-swap the active generation under live traffic.  Every call must
  // complete (never block, never throw) and emit valid distributions.
  std::atomic<std::size_t> bad{0};
  std::atomic<bool> serving_failed{false};
  std::thread server([&] {
    la::Matrix proba;
    for (int i = 0; i < 200; ++i) {
      try {
        pipeline.predict_proba_into(batch, proba);
      } catch (...) {
        serving_failed.store(true);
        return;
      }
      for (std::size_t r = 0; r < proba.rows(); ++r) {
        double total = 0.0;
        bool finite = true;
        for (double v : proba.row(r)) {
          finite = finite && std::isfinite(v);
          total += v;
        }
        if (!finite || std::abs(total - 1.0) > 1e-6) bad.fetch_add(1);
      }
    }
  });

  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(pipeline.registry().rollback());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.join();

  EXPECT_FALSE(serving_failed.load());
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(pipeline.registry().rollbacks_total(), 20u);
  EXPECT_TRUE(pipeline.serving_plans_active());
}

}  // namespace
}  // namespace fsda::core
