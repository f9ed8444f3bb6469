// fsda::core -- the one serving path for a trained pipeline.
//
// An InferenceSession freezes the reconstruct->classify hot path of
// FsGanPipeline::predict_proba (DESIGN.md §11).  Its reconstructor stage
// compiles the network a Reconstructor exposes through serving_stage() --
// the CGAN generator, the VAE decoder or the autoencoder -- into an
// nn::InferencePlan (weights packed into the panel-major GEMM layout,
// activations fused, dropout and batch-norm folded), or calls the
// MeanImpute fallback's const row routine.  Its classifier stage runs a
// compiled plan for an MLP/TNet and the classifier's own const
// predict_proba, one row chunk at a time, for anything else (RF, XGB).
// The plan stages execute into context-owned buffers with zero
// steady-state heap allocations.
//
// build() serves every pipeline the classifier and reconstructor factories
// can train, in all three separation regimes (FS-only / no-reconstructor /
// full FS+GAN).  The plan forwards match the layer forwards to ~1e-12 under
// either GEMM kernel, and a context made by create_serve_context() (no
// seed) consumes the reconstructor's own noise stream in the same order as
// reconstruct().  Health guardrails (quarantine, clamp envelope,
// uniform-row rewrites) stay in the pipeline's one scoring body.
//
// A session is immutable after build.  It owns its compiled plans and
// shares a non-plan classifier with the pipeline, so a retrain never pulls
// a classifier out from under it; its noise stream and MeanImpute routine
// belong to the reconstructor of the generation that holds the session.
// predict_proba_scaled has one body: it draws the batch's noise serially
// from the context's stream, then splits rows across the global ThreadPool
// when the batch has at least kParallelRows rows and the caller is not
// already inside a pool region (serial and split execution are
// bitwise-identical).  Every mutable buffer lives in the ServeContext, so
// distinct contexts may run concurrently on one session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/feature_separation.hpp"
#include "core/reconstructor.hpp"
#include "la/matrix.hpp"
#include "models/classifier.hpp"
#include "nn/inference.hpp"

namespace fsda::core {

class MeanImputeReconstructor;

/// Maps the classifier's trained input order onto a (possibly different)
/// serving-time partition.  The classifier is frozen with inputs
/// [X_inv | X_var] of the partition it was TRAINED on; when drift
/// re-adaptation discovers a fresh partition, column j of the classifier
/// input is sourced from either a raw feature (still trusted under the new
/// partition) or a column of the new reconstructor's output:
///
///   input[j] = from_recon[j] ? recon_out[src[j]] : x[src[j]]
///
/// `identity` marks the fast path where the map is exactly
/// [sep.invariant raw gather | recon 0..var) in order -- the partition the
/// classifier was trained on -- letting the generator write straight into
/// the assembled block with no per-column scatter.
struct AssemblyMap {
  std::vector<std::size_t> src;
  std::vector<char> from_recon;
  bool identity = false;

  /// Builds the map for a classifier trained on raw features
  /// `trained_order` (in input order) served under partition `sep`.  With
  /// a reconstructor, trained features that are variant under `sep` come
  /// from the reconstruction; everything else stays raw.
  static AssemblyMap build(const std::vector<std::size_t>& trained_order,
                           const SeparationResult& sep,
                           bool with_reconstructor);
};

class InferenceSession {
 public:
  /// Compiles the classifier (and the reconstructor when `map` sources any
  /// column from it).  Serves a classifier trained on one feature order
  /// through the partition/reconstructor of a (possibly newer) generation,
  /// routing each classifier input column per `map`.  A map that does not
  /// fit the classifier/reconstructor shapes is a caller bug (FSDA_CHECK).
  static std::unique_ptr<InferenceSession> build(
      std::shared_ptr<const models::Classifier> classifier,
      std::size_t num_classes, Reconstructor* reconstructor,
      const SeparationResult& sep, const AssemblyMap& map,
      std::size_t monte_carlo_m, bool use_reconstruction);

  /// Batches with at least this many rows split across
  /// ThreadPool::global(); smaller ones run inline on the caller.  Measured
  /// inline vs split on the 156-feature quick layout (4-vCPU AVX2,
  /// DESIGN.md §11): a lone caller gains from the split at every batch
  /// size from 2 rows (b2 20.7 -> 17.1 us, b8 49 -> 33, b64 284 -> 138).
  static constexpr std::size_t kParallelRows = 2;

  /// Per-caller execution context: all per-call buffers, one pair of plan
  /// workspaces per row chunk, and the reconstruction-noise stream.  One
  /// context belongs to one thread at a time; with distinct contexts,
  /// predict_proba_scaled is safe to call from many threads at once (the
  /// compiled plans are immutable and shared).  A context is bound to the
  /// session that created it -- after a model hot-swap, build a fresh
  /// context from the new session.
  class ServeContext {
   public:
    /// Pre-sizes every buffer and chunk workspace for batches of up to
    /// `rows` rows, so calls at any batch size <= rows are allocation-free
    /// from the first one.
    void reserve(std::size_t rows);

   private:
    friend class InferenceSession;
    struct Chunk {
      nn::InferenceWorkspace gen_ws;
      nn::InferenceWorkspace clf_ws;
    };
    ServeContext(const InferenceSession* owner,
                 std::optional<std::uint64_t> noise_seed)
        : owner_(owner),
          rng_(noise_seed.value_or(0)),
          reconstructor_stream_(!noise_seed.has_value()) {}
    const InferenceSession* owner_;
    common::Rng rng_;            ///< private noise stream (Reconstruct mode)
    bool reconstructor_stream_;  ///< draw from the reconstructor's stream
    std::vector<Chunk> chunks_;  ///< one per row chunk of a split batch
    la::Matrix selected_, assembled_, recon_, g_in_, mc_tmp_;
  };

  /// Creates a serving context whose reconstruction-noise stream derives
  /// from `noise_seed` (decorrelate concurrent workers with distinct
  /// seeds).
  [[nodiscard]] std::unique_ptr<ServeContext> create_serve_context(
      std::uint64_t noise_seed) const;

  /// Creates a context that draws noise from the reconstructor's own
  /// stream, exactly as reconstruct() does -- the reference the session is
  /// checked against.  Contexts of this kind share that stream, so only
  /// one of them may run at a time per reconstructor.
  [[nodiscard]] std::unique_ptr<ServeContext> create_serve_context() const;

  /// Scores `x`, the scaled, sanitized batch in original feature order;
  /// `proba` is resized to rows x num_classes.  With plan stages,
  /// allocation-free once `ctx` is warm (or reserved).
  void predict_proba_scaled(const la::Matrix& x, la::Matrix& proba,
                            ServeContext& ctx) const;

  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }

 private:
  enum class Mode {
    Direct,       ///< classify x as-is (FS-only, empty invariant set)
    Select,       ///< classify a column gather of x
    Reconstruct,  ///< gather inv block, generate var block, classify
  };

  InferenceSession() = default;

  /// Classifier stage over one row block: the compiled plan, or the
  /// classifier's const predict_proba.
  void classify(la::ConstMatrixView in, la::MatrixView out,
                ServeContext::Chunk& chunk) const;

  Mode mode_ = Mode::Direct;
  std::size_t num_classes_ = 0;
  std::size_t monte_carlo_m_ = 1;

  std::optional<nn::InferencePlan> clf_plan_;
  std::shared_ptr<const models::Classifier> classifier_;  // no clf_plan_ only
  // Mode::Reconstruct: the generator plan, or the MeanImpute row routine
  // (owned by the generation's reconstructor), and the noise block.
  std::optional<nn::InferencePlan> gen_plan_;
  const MeanImputeReconstructor* impute_ = nullptr;
  common::Rng* noise_stream_ = nullptr;  // the reconstructor's own stream
  std::size_t noise_dim_ = 0;
  std::size_t var_dim_ = 0;
  std::vector<std::size_t> cols_;  // gather list (Select: all, Reconstruct: inv)
  AssemblyMap map_;                // Reconstruct: classifier column routing
  std::size_t min_input_cols_ = 0;  // raw width the gathers require
  // Non-identity scatter lists: assembled(.,raw_dst_[i]) = x(.,raw_src_[i])
  // once per batch; assembled(.,recon_dst_[i]) = recon(.,recon_src_[i])
  // once per Monte-Carlo draw.
  std::vector<std::size_t> raw_dst_, raw_src_;
  std::vector<std::size_t> recon_dst_, recon_src_;
};

}  // namespace fsda::core
