// fsda::core -- versioned, atomically hot-swappable serving generations.
//
// A ModelGeneration bundles everything one "version" of the pipeline's
// serving state consists of: the feature partition it serves under, the
// reconstructor fitted for that partition, the AssemblyMap routing the
// frozen classifier's trained input order through it, the InferenceSession
// every prediction scores through, and the drift reference the generation
// was validated against.  Generations are immutable once
// published -- re-adaptation builds a NEW generation off to the side and
// publishes it with one pointer swap.
//
// The registry holds the active generation in a std::shared_ptr guarded by
// one mutex: readers (the pipeline's scoring body) copy the pointer under
// the lock once per batch and keep the snapshot alive for the duration of
// the batch via shared ownership, so a concurrent publish or rollback never
// tears or frees state mid-prediction.  The critical sections are a
// pointer copy or swap; a generation displaced by a writer is released
// after the lock is dropped, so no reader ever waits on a destructor.  The
// mutex (rather than std::atomic<std::shared_ptr>) is the handoff: its
// lock/unlock pair orders the publisher's writes before the reader's use
// in a way ThreadSanitizer can see.  Exactly one previous generation is
// retained for rollback; rollback() swaps it back in when post-promotion
// probation detects a regression.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/feature_separation.hpp"
#include "core/inference_session.hpp"
#include "core/reconstructor.hpp"
#include "obs/drift.hpp"

namespace fsda::core {

/// One immutable serving version; a published generation always has a
/// `session`.
struct ModelGeneration {
  std::uint64_t id = 0;            ///< assigned by the registry at publish
  std::string provenance;          ///< "train" / "adapt" / "readapt" / ...
  SeparationResult separation;     ///< partition this generation serves under
  AssemblyMap assembly;            ///< trained-order column routing
  std::shared_ptr<Reconstructor> reconstructor;  ///< null in FS / no-recon
  std::unique_ptr<const InferenceSession> session;  ///< the serving path
  obs::DriftMonitor drift_monitor;  ///< PSI reference for serving telemetry
  double validation_accuracy = 0.0;  ///< held-out source accuracy at publish
};

using GenerationPtr = std::shared_ptr<const ModelGeneration>;

class ModelRegistry {
 public:
  ModelRegistry() = default;
  /// Movable so owners (FsGanPipeline) stay movable before serving starts.
  /// Moving a registry that readers or writers are actively using is a race
  /// -- the same rule as moving the pipeline itself mid-serve.
  ModelRegistry(ModelRegistry&& other) noexcept;
  ModelRegistry& operator=(ModelRegistry&& other) noexcept;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The active generation (null before the first publish): a pointer
  /// copy under the mutex.  The returned snapshot stays valid for as long
  /// as the caller holds it, across any number of concurrent publishes.
  [[nodiscard]] GenerationPtr active() const {
    std::lock_guard<std::mutex> lk(mu_);
    return active_;
  }

  /// Id of the active generation, 0 when none.
  [[nodiscard]] std::uint64_t active_id() const {
    const GenerationPtr g = active();
    return g ? g->id : 0;
  }

  /// Assigns the next id, retains the current active generation for
  /// rollback, and swaps `gen` in.  Returns the assigned id.
  std::uint64_t publish(std::shared_ptr<ModelGeneration> gen);

  /// Swaps the retained previous generation back in (the rolled-back
  /// generation becomes the new "previous", so a second rollback undoes
  /// the first).  Returns false when there is nothing to roll back to.
  bool rollback();

  /// Drops the depth-1 rollback history, releasing the previous
  /// generation's reconstructor/session immediately instead of pinning
  /// them until the next publish.  The drift loop calls this once a
  /// promoted generation survives probation -- after that point a
  /// rollback would be a regression, and a long-running daemon must not
  /// keep a stale model generation alive.  Returns false when there was
  /// nothing to retire.
  bool retire_previous();

  /// Drops both generations (ids stay monotonic across resets).
  void reset();

  [[nodiscard]] std::uint64_t published_total() const {
    return published_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rollbacks_total() const {
    return rollbacks_.load(std::memory_order_relaxed);
  }
  /// Generations dropped from the rollback slot by retire_previous().
  [[nodiscard]] std::uint64_t retired_total() const {
    return retired_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  GenerationPtr active_;         // guarded by mu_
  GenerationPtr previous_;       // guarded by mu_
  std::uint64_t next_id_ = 1;    // guarded by mu_
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> rollbacks_{0};
  std::atomic<std::uint64_t> retired_{0};
};

}  // namespace fsda::core
