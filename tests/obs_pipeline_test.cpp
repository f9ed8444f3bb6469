// Integration test: after training and predicting with the FS+GAN pipeline
// under enabled telemetry, the global registry holds the stage counters,
// drift gauges, and health data the ISSUE's observability contract promises.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "baselines/ours.hpp"
#include "core/pipeline.hpp"
#include "data/gen5gc.hpp"
#include "models/factory.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {
namespace {

causal::FNodeOptions fast_fs() {
  causal::FNodeOptions o;
  o.max_condition_size = 1;
  o.candidate_pool = 4;
  o.max_subsets_per_level = 8;
  return o;
}

TEST(ObsPipelineTest, TrainAndPredictPopulateRegistry) {
  obs::set_telemetry_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset_values();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.reset();
  recorder.set_enabled(true);

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
  const la::Matrix proba = pipeline.predict_proba(split.target_test.x);

  recorder.set_enabled(false);
  obs::set_telemetry_enabled(false);

  // Stage counters.
  EXPECT_GT(registry.counter("fs.ci_tests_total").value(), 0u);
  EXPECT_GT(registry.counter("cgan.epochs_total").value(), 0u);
  EXPECT_EQ(registry.counter("predict.rows_total").value(),
            split.target_test.x.rows());
  EXPECT_EQ(registry.counter("predict.batches_total").value(), 1u);
  EXPECT_GT(registry.counter("recon.draws_total").value(), 0u);
  EXPECT_GT(registry.counter("scaler.transform_rows_total").value(), 0u);
  // Separating-set sizes are an HDR distribution (hdr() throws if the
  // name were registered with another type).
  EXPECT_GT(registry.hdr("fs.sepset_size").count(), 0u);

  // Stage timing gauges.
  EXPECT_GT(registry.gauge_value("pipeline.scaler_fit_seconds", -1.0), 0.0);
  EXPECT_GT(registry.gauge_value("pipeline.feature_separation_seconds", -1.0),
            0.0);
  EXPECT_GT(registry.gauge_value("pipeline.classifier_fit_seconds", -1.0),
            0.0);
  const double fit_seconds =
      registry.gauge_value("pipeline.reconstructor_fit_seconds", -1.0);
  EXPECT_GT(fit_seconds, 0.0);
  // The accessor is a thin wrapper over the gauge (ISSUE satellite b).
  EXPECT_DOUBLE_EQ(pipeline.reconstructor_train_seconds(), fit_seconds);

  // Feature-separation gauges match the pipeline's own counts.
  EXPECT_DOUBLE_EQ(registry.gauge_value("fs.variant_features", -1.0),
                   static_cast<double>(pipeline.separation().variant.size()));

  // Drift gauges: one labelled PSI gauge per variant feature plus the
  // aggregates, all finite after a predict batch.
  ASSERT_FALSE(pipeline.separation().variant.empty());
  for (const std::size_t col : pipeline.separation().variant) {
    const std::string name =
        "drift.psi{feature=\"" + std::to_string(col) + "\"}";
    EXPECT_TRUE(registry.has(name)) << name;
    EXPECT_TRUE(std::isfinite(registry.gauge_value(name))) << name;
  }
  EXPECT_TRUE(std::isfinite(registry.gauge_value("drift.psi_max")));
  EXPECT_TRUE(std::isfinite(registry.gauge_value("drift.psi_mean")));
  EXPECT_GE(registry.gauge_value("drift.psi_max"),
            registry.gauge_value("drift.psi_mean"));
  EXPECT_GE(registry.gauge_value("drift.quarantine_rate", -1.0), 0.0);
  EXPECT_GE(registry.gauge_value("drift.clamped_fraction", -1.0), 0.0);

  // Probabilities sane (the pipeline actually predicted).
  ASSERT_EQ(proba.rows(), split.target_test.x.rows());
  for (std::size_t c = 0; c < proba.cols(); ++c) {
    EXPECT_GE(proba(0, c), 0.0);
    EXPECT_LE(proba(0, c), 1.0);
  }

  // Health report serializes and reflects the registry's quarantine count.
  const HealthReport& health = pipeline.health();
  const std::string json = health.to_json();
  EXPECT_NE(json.find("\"degraded\":"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(
      json.find("\"quarantined_rows\":" +
                std::to_string(health.quarantined_rows)),
      std::string::npos);
  EXPECT_EQ(registry.counter("predict.quarantined_rows_total").value(),
            health.quarantined_rows);

  // The span tree built from the journal recorded the stage structure.
  const obs::SpanSnapshot root = obs::span_tree(recorder.snapshot());
  EXPECT_EQ(root.dropped_events, 0u);
  const obs::SpanSnapshot* train = root.child("pipeline.train");
  ASSERT_NE(train, nullptr);
  EXPECT_EQ(train->count, 1u);
  EXPECT_NE(train->child("pipeline.scaler_fit"), nullptr);
  EXPECT_NE(train->child("pipeline.feature_separation"), nullptr);
  const obs::SpanSnapshot* recon = train->child("pipeline.reconstructor_fit");
  ASSERT_NE(recon, nullptr);
  EXPECT_NE(recon->child("cgan.fit"), nullptr);
  EXPECT_NE(train->child("pipeline.classifier_fit"), nullptr);
  // train() hands its freed pages back as it returns and records the
  // resident set it leaves (0 off Linux).
  EXPECT_NE(train->child("heap.release"), nullptr);
#if defined(__linux__)
  EXPECT_GT(registry.gauge_value("process.rss_mb", -1.0), 0.0);
#endif
  const obs::SpanSnapshot* predict = root.child("predict.batch");
  ASSERT_NE(predict, nullptr);
  EXPECT_EQ(predict->count, 1u);

  // The whole story lands in one exposition scrape.
  const std::string text = registry.expose_text();
  EXPECT_NE(text.find("fsda_fs_ci_tests_total"), std::string::npos);
  EXPECT_NE(text.find("fsda_cgan_epochs_total"), std::string::npos);
  EXPECT_NE(text.find("fsda_drift_psi{feature="), std::string::npos);
}

}  // namespace
}  // namespace fsda::core
