// fsda::core -- the packed serving path for a trained pipeline.
//
// An InferenceSession freezes the reconstruct->classify hot path of
// FsGanPipeline::predict_proba into nn::InferencePlans (DESIGN.md §11):
// the CGAN generator and the neural classifier are compiled once -- weights
// packed into the panel-major GEMM layout, activations fused, dropout and
// batch-norm folded -- and every subsequent prediction executes into
// context-owned buffers with zero steady-state heap allocations.
//
// The session serves the same three separation regimes as the layer-API
// path (FS-only / no-reconstructor / full FS+GAN) and reproduces its
// numerics: the plan forwards match the layer forwards to ~1e-12 under
// either GEMM kernel, and a context made by create_serve_context() (no
// seed) consumes the GAN's own noise stream in the same order as
// reconstruct().
//
// build() returns nullptr whenever the classifier or reconstructor is not
// plan-compatible (non-MLP classifier, MeanImpute fallback, unsupported
// layer kinds); the pipeline then falls back to the layer API untouched.
// Health guardrails (quarantine, clamp envelope, uniform-row rewrites) stay
// in the pipeline's one scoring body and therefore apply to both paths.
//
// A session is immutable after build.  predict_proba_scaled has one body:
// it draws the batch's noise serially from the context's stream, then
// splits rows across the global ThreadPool when the batch has at least
// kParallelRows rows and the caller is not already inside a pool region
// (serial and split execution are bitwise-identical).  Every mutable
// buffer lives in the ServeContext, so distinct contexts may run
// concurrently on one session.
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

class ConditionalGAN;

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
  /// Compiles plans for the classifier (and the reconstructor when `map`
  /// sources any column from it).  Serves a classifier trained on one
  /// feature order through the partition/reconstructor of a (possibly
  /// newer) generation, routing each classifier input column per `map`.
  /// Returns nullptr when anything is not plan-compatible or the map does
  /// not fit the classifier/reconstructor shapes.
  static std::unique_ptr<InferenceSession> build(models::Classifier& classifier,
                                                 Reconstructor* reconstructor,
                                                 const SeparationResult& sep,
                                                 const AssemblyMap& map,
                                                 std::size_t monte_carlo_m,
                                                 bool use_reconstruction);

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
    bool reconstructor_stream_;  ///< draw from the GAN's stream instead
    std::vector<Chunk> chunks_;  ///< one per row chunk of a split batch
    la::Matrix selected_, assembled_, recon_, g_in_, noise_, mc_tmp_;
  };

  /// Creates a serving context whose reconstruction-noise stream derives
  /// from `noise_seed` (decorrelate concurrent workers with distinct
  /// seeds).
  [[nodiscard]] std::unique_ptr<ServeContext> create_serve_context(
      std::uint64_t noise_seed) const;

  /// Creates a context that draws noise from the reconstructor's own
  /// stream, exactly as the layer API's reconstruct() does -- the reference
  /// the packed path is checked against.  Contexts of this kind share that
  /// stream, so only one of them may run at a time per reconstructor.
  [[nodiscard]] std::unique_ptr<ServeContext> create_serve_context() const;

  /// The packed equivalent of the layer-API predict: `x` is the scaled,
  /// sanitized batch in original feature order; `proba` is resized to
  /// rows x num_classes.  Allocation-free once `ctx` is warm (or reserved).
  void predict_proba_scaled(const la::Matrix& x, la::Matrix& proba,
                            ServeContext& ctx) const;

  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  /// True when this session runs the generator plan (full FS+GAN regime).
  [[nodiscard]] bool reconstructs() const { return gen_plan_.has_value(); }

 private:
  enum class Mode {
    Direct,       ///< classify x as-is (FS-only, empty invariant set)
    Select,       ///< classify a column gather of x
    Reconstruct,  ///< gather inv block, generate var block, classify
  };

  InferenceSession() = default;

  Mode mode_ = Mode::Direct;
  std::size_t num_classes_ = 0;
  std::size_t monte_carlo_m_ = 1;

  std::optional<nn::InferencePlan> clf_plan_;
  std::optional<nn::InferencePlan> gen_plan_;
  ConditionalGAN* gan_ = nullptr;  // non-owning; Mode::Reconstruct only
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
