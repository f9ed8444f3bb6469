// The benchmark's one fixed layout: the 156-feature quick 5GC structural
// causal model, an MLP classifier and a CGAN reconstructor (FS+GAN), with
// packed serving plans and whatever GEMM ISA the host supports.  Every
// workload builds its inputs from the workload seed through this file, so
// the same seed gives the same data, the same trained pipeline and the same
// drift schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/drift_loop.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "data/gen5gc.hpp"
#include "data/scm.hpp"

namespace perfbench {

/// Rows per labelled drift-stream batch.
inline constexpr std::size_t kBatchRows = 64;
/// SCM domains: 0 is the source, 1 the target the pipeline is trained for;
/// drift workloads register their regimes from kFirstDriftDomain on.
inline constexpr std::size_t kTrainedDomain = 1;
inline constexpr std::size_t kFirstDriftDomain = 2;

/// Labelled rows drawn from one SCM domain, labels round-robin over the
/// classes so every batch is class-balanced.
class Stream {
 public:
  Stream(const fsda::data::Scm& scm, std::uint64_t seed)
      : scm_(&scm), rng_(seed) {}

  fsda::data::Dataset batch(std::size_t domain, std::size_t rows = kBatchRows);

 private:
  const fsda::data::Scm* scm_;
  fsda::common::Rng rng_;
  std::size_t label_cursor_ = 0;
};

/// Wall time of each set-up stage, seconds.
struct SetupTimes {
  double data_s = 0.0;
  double train_s = 0.0;
  double start_s = 0.0;  ///< filled by the workload (daemon, socket, loop)
  [[nodiscard]] double total() const { return data_s + train_s + start_s; }
};

struct Fixture {
  fsda::data::Gen5GCConfig config;
  fsda::data::Scm scm;
  std::unique_ptr<Stream> stream;
  fsda::data::Dataset source;
  fsda::data::Dataset shots;  ///< few-shot target rows the pipeline trains FS on
  fsda::data::Dataset probe;  ///< held-out labelled target rows
  fsda::core::PipelineOptions options;
  std::unique_ptr<fsda::core::FsGanPipeline> pipeline;
  SetupTimes times;
};

/// Generates the data for `seed` and trains the pipeline (set-up stages
/// "data" and "train").
[[nodiscard]] std::unique_ptr<Fixture> make_fixture(std::uint64_t seed);

/// Registers soft interventions on `count` observed leaf features (no node
/// downstream) for `domain`, all shifted by +shift, skipping the features
/// `exclude_domains` already intervene.  `salt` picks where the stride scan
/// starts, so different salts choose different feature sets.  Leaves keep
/// the shifted set exactly the intervened features.  Returns the number
/// planted.
std::size_t intervene_leaves(fsda::data::Scm& scm, std::size_t domain,
                             std::size_t count, double shift, std::size_t salt,
                             const std::vector<std::size_t>& exclude_domains);

/// Drift-loop options shared by both drift workloads (detector sized to one
/// batch, validation gates loose enough for the quick layout).
[[nodiscard]] fsda::core::DriftLoopOptions drift_loop_options(
    const Fixture& fx, bool background);

/// Row-wise argmax accuracy of `proba` against `labels`.
[[nodiscard]] std::size_t count_correct(const fsda::la::Matrix& proba,
                                        const std::vector<std::int64_t>& labels);

/// True when every row is finite, non-negative and sums to 1.
[[nodiscard]] bool rows_on_simplex(const fsda::la::Matrix& proba);

}  // namespace perfbench
