#include "fixture.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/ours.hpp"
#include "common/stopwatch.hpp"
#include "models/factory.hpp"

namespace perfbench {

using namespace fsda;

data::Dataset Stream::batch(std::size_t domain, std::size_t rows) {
  data::Dataset d;
  d.num_classes = data::k5gcNumClasses;
  d.y.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    d.y[i] = static_cast<std::int64_t>(label_cursor_++ % data::k5gcNumClasses);
  }
  d.x = scm_->sample(domain, d.y, rng_);
  return d;
}

std::unique_ptr<Fixture> make_fixture(std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  common::Stopwatch watch;
  // The layout is fixed: the 5GC causal graph, the training corpus (source
  // rows and few-shot target rows) and the training seed, so every run
  // serves the same trained model.  The workload seed drives everything
  // the model is then fed: the probe rows, the served and drift streams.
  fx->config = data::Gen5GCConfig::quick();
  fx->scm = data::build_5gc_scm(fx->config);
  common::Rng corpus_rng(fx->config.seed);
  fx->source.num_classes = data::k5gcNumClasses;
  fx->source.y.resize(fx->config.source_samples);
  for (std::size_t i = 0; i < fx->source.y.size(); ++i) {
    fx->source.y[i] = static_cast<std::int64_t>(i % data::k5gcNumClasses);
  }
  fx->source.x = fx->scm.sample(0, fx->source.y, corpus_rng);
  fx->shots = Stream(fx->scm, fx->config.seed ^ 0x5407ULL)
                  .batch(kTrainedDomain, 2 * data::k5gcNumClasses);
  fx->stream = std::make_unique<Stream>(fx->scm, 0x5BE9C4ULL + 7919 * seed);
  fx->probe =
      fx->stream->batch(kTrainedDomain, fx->config.target_test_samples);
  fx->times.data_s = watch.seconds();

  // Strict significance keeps the partition stable across re-adaptations
  // (one spurious variant feature among ~150 flips it and defeats the warm
  // path); the planted +-5 shifts have enormous z-scores regardless.
  core::PipelineOptions& o = fx->options;
  o.fs.alpha = 1e-6;
  o.fs.max_condition_size = 1;
  o.fs.candidate_pool = 4;
  o.fs.max_subsets_per_level = 8;
  o.fs.deadline_ms = 3000;
  o.use_reconstruction = true;
  o.validation_rows = 64;
  watch.reset();
  fx->pipeline = std::make_unique<core::FsGanPipeline>(
      models::make_classifier_factory("mlp"),
      baselines::make_reconstructor_factory(baselines::ReconKind::Gan), o,
      fx->config.seed);
  fx->pipeline->train(fx->source, fx->shots);
  fx->times.train_s = watch.seconds();
  return fx;
}

std::size_t intervene_leaves(data::Scm& scm, std::size_t domain,
                             std::size_t count, double shift, std::size_t salt,
                             const std::vector<std::size_t>& exclude_domains) {
  std::vector<char> is_parent(scm.num_nodes(), 0);
  for (std::size_t i = 0; i < scm.num_nodes(); ++i) {
    for (const std::size_t p : scm.node(i).parents) is_parent[p] = 1;
  }
  // Observed-feature index of every observed leaf node, and the node itself.
  std::vector<std::size_t> leaf_feature, leaf_node;
  std::size_t feature = 0;
  for (std::size_t i = 0; i < scm.num_nodes(); ++i) {
    if (!scm.node(i).observed) continue;
    if (!is_parent[i]) {
      leaf_feature.push_back(feature);
      leaf_node.push_back(i);
    }
    ++feature;
  }
  std::vector<char> taken(leaf_node.size(), 0);
  for (const std::size_t d : exclude_domains) {
    for (const std::size_t f : scm.intervened_observed_features(d)) {
      const auto it = std::find(leaf_feature.begin(), leaf_feature.end(), f);
      if (it != leaf_feature.end()) taken[it - leaf_feature.begin()] = 1;
    }
  }
  // Stride scan over the leaves, stepping one further on each lap so that
  // all n positions are visited once.
  const std::size_t n = leaf_node.size();
  const std::size_t stride = std::max<std::size_t>(n / std::max<std::size_t>(count, 1), 1);
  const std::size_t per_lap = std::max<std::size_t>(n / stride, 1);
  std::size_t planted = 0;
  for (std::size_t k = 0; k < n && planted < count; ++k) {
    const std::size_t f = (salt + k * stride + k / per_lap) % n;
    if (taken[f]) continue;
    taken[f] = 1;
    data::SoftIntervention iv;
    iv.shift = shift;
    iv.extra_noise = 0.1;
    scm.intervene(domain, leaf_node[f], iv);
    ++planted;
  }
  return planted;
}

core::DriftLoopOptions drift_loop_options(const Fixture& fx, bool background) {
  core::DriftLoopOptions lo;
  lo.detector.window = kBatchRows;
  lo.detector.min_window = kBatchRows / 2;
  lo.detector.patience = 2;
  lo.detector.cooldown = 4;
  // Above the one-batch PSI/KS noise floor over ~150 monitored features,
  // far below what a +-5 shift on a handful of features produces.
  lo.detector.psi_trigger = 3.0;
  lo.detector.psi_clear = 1.5;
  lo.detector.ks_trigger = 0.6;
  lo.detector.ks_clear = 0.4;
  // Two batches: at trigger time (patience 2) the ring holds only rows of
  // the new regime, so each search sees a pure current-domain sample.
  lo.buffer_capacity = 2 * kBatchRows;
  lo.min_adaptation_samples = kBatchRows;
  lo.fs = fx.options.fs;
  lo.validation.min_accuracy = 0.3;
  lo.validation.max_accuracy_drop = 0.25;
  lo.validation.max_uniform_fraction = 0.5;
  lo.probation_batches = 4;
  lo.background = background;
  return lo;
}

std::size_t count_correct(const la::Matrix& proba,
                          const std::vector<std::int64_t>& labels) {
  std::size_t hits = 0;
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < proba.cols(); ++c) {
      if (proba(r, c) > proba(r, best)) best = c;
    }
    if (static_cast<std::int64_t>(best) == labels[r]) ++hits;
  }
  return hits;
}

bool rows_on_simplex(const la::Matrix& proba) {
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < proba.cols(); ++c) {
      const double p = proba(r, c);
      if (!std::isfinite(p) || p < -1e-9) return false;
      sum += p;
    }
    if (std::abs(sum - 1.0) > 1e-6) return false;
  }
  return true;
}

}  // namespace perfbench
