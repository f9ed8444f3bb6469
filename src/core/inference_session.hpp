// fsda::core -- the packed serving path for a trained pipeline.
//
// An InferenceSession freezes the reconstruct->classify hot path of
// FsGanPipeline::predict_proba into nn::InferencePlans (DESIGN.md §11):
// the CGAN generator and the neural classifier are compiled once -- weights
// packed into the panel-major GEMM layout, activations fused, dropout and
// batch-norm folded -- and every subsequent prediction executes into
// session-owned buffers with zero steady-state heap allocations.
//
// The session serves the same three separation regimes as the layer-API
// path (FS-only / no-reconstructor / full FS+GAN) and reproduces its
// numerics: the generator consumes the GAN's own noise stream in the same
// order as reconstruct(), and the plan forwards match the layer forwards
// to ~1e-12 under either GEMM kernel.
//
// build() returns nullptr whenever the classifier or reconstructor is not
// plan-compatible (non-MLP classifier, MeanImpute fallback, unsupported
// layer kinds); the pipeline then falls back to the layer API untouched.
// Health guardrails (quarantine, clamp envelope, uniform-row rewrites) stay
// in the predict_proba wrapper and therefore apply to both paths.
//
// Micro-batches are sharded over the global ThreadPool (noise is drawn
// serially first, so serial and threaded execution are bitwise-identical);
// single samples run inline.  predict_proba_scaled is not re-entrant --
// call it from one thread at a time, as with the pipeline itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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

  /// The packed equivalent of FsGanPipeline::predict_proba_scaled: `x` is
  /// the scaled, sanitized batch in original feature order; `proba` is
  /// resized to rows x num_classes.  Allocation-free once warm.
  void predict_proba_scaled(const la::Matrix& x, la::Matrix& proba);

  /// Per-caller execution context for the concurrent serving path: all
  /// per-call buffers, private plan workspaces, and an independent noise
  /// stream.  One context belongs to one thread at a time; with distinct
  /// contexts, predict_proba_scaled(x, proba, ctx) is safe to call from
  /// many threads at once (the compiled plans are immutable and shared).
  /// A context is bound to the session that created it -- after a model
  /// hot-swap, build a fresh context from the new session.
  class ServeContext {
   public:
    /// Pre-sizes every buffer for batches of up to `rows` rows, so calls
    /// at any batch size <= rows are allocation-free from the first one.
    void reserve(std::size_t rows);

   private:
    friend class InferenceSession;
    ServeContext(const InferenceSession* owner, std::uint64_t noise_seed)
        : owner_(owner), rng_(noise_seed) {}
    const InferenceSession* owner_;
    common::Rng rng_;  ///< private noise stream (Reconstruct mode)
    nn::InferenceWorkspace gen_ws_;
    nn::InferenceWorkspace clf_ws_;
    la::Matrix selected_, assembled_, recon_, g_in_, noise_, mc_tmp_;
  };

  /// Creates a serving context whose reconstruction-noise stream derives
  /// from `noise_seed` (decorrelate concurrent workers with distinct
  /// seeds).
  [[nodiscard]] std::unique_ptr<ServeContext> create_serve_context(
      std::uint64_t noise_seed) const;

  /// Re-entrant predict for the serving daemon: same math as the
  /// single-caller overload, but every mutable buffer lives in `ctx` and
  /// reconstruction noise comes from the context's own stream (the
  /// session-owned overload consumes the GAN's stream to stay bitwise
  /// aligned with the layer path).  Runs the batch serially on the calling
  /// thread -- a daemon's worker pool is the parallelism.
  void predict_proba_scaled(const la::Matrix& x, la::Matrix& proba,
                            ServeContext& ctx) const;

  /// Grows the single-caller buffers and the chunk-workspace pool for
  /// batches of up to `rows` rows, once; afterwards predict calls at any
  /// batch size <= rows never reallocate, even when client batch sizes
  /// vary from call to call (chunk boundaries -- and hence per-workspace
  /// row counts -- move with the batch size, so without this the pool
  /// would grow lazily toward its high-water mark).
  void reserve_batch(std::size_t rows);

  /// Toggles ThreadPool sharding of micro-batches (on by default); serial
  /// and threaded execution produce identical output.
  void set_threading_enabled(bool on) { threading_enabled_ = on; }

  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }
  /// True when this session runs the generator plan (full FS+GAN regime).
  [[nodiscard]] bool reconstructs() const { return gen_plan_.has_value(); }

 private:
  /// Per-execution-context workspaces (one per concurrent chunk).
  struct Ctx {
    nn::InferenceWorkspace gen_ws;
    nn::InferenceWorkspace clf_ws;
  };

  enum class Mode {
    Direct,       ///< classify x as-is (FS-only, empty invariant set)
    Select,       ///< classify a column gather of x
    Reconstruct,  ///< gather inv block, generate var block, classify
  };

  InferenceSession() = default;

  Ctx* acquire_ctx();
  void release_ctx(Ctx* ctx);

  Mode mode_ = Mode::Direct;
  std::size_t num_classes_ = 0;
  std::size_t monte_carlo_m_ = 1;
  bool threading_enabled_ = true;

  std::optional<nn::InferencePlan> clf_plan_;
  std::optional<nn::InferencePlan> gen_plan_;
  ConditionalGAN* gan_ = nullptr;  // non-owning; Mode::Reconstruct only
  std::vector<std::size_t> cols_;  // gather list (Select: all, Reconstruct: inv)
  AssemblyMap map_;                // Reconstruct: classifier column routing
  std::size_t min_input_cols_ = 0;  // raw width the gathers require
  // Non-identity scatter lists: assembled_(.,raw_dst_[i]) = x(.,raw_src_[i])
  // once per batch; assembled_(.,recon_dst_[i]) = recon_(.,recon_src_[i])
  // once per Monte-Carlo draw.
  std::vector<std::size_t> raw_dst_, raw_src_;
  std::vector<std::size_t> recon_dst_, recon_src_;

  // Persistent buffers -- capacity reused across calls.
  la::Matrix selected_;   // Select: gathered classifier input
  la::Matrix assembled_;  // Reconstruct: classifier input in trained order
  la::Matrix recon_;      // Reconstruct (non-identity map): generator output
  la::Matrix g_in_;       // Reconstruct: [x_inv | z] generator input
  la::Matrix noise_;      // Reconstruct: z draws
  la::Matrix mc_tmp_;     // Reconstruct: per-draw probabilities (M > 1)

  std::mutex ctx_mu_;
  std::vector<std::unique_ptr<Ctx>> ctx_pool_;
  std::vector<Ctx*> ctx_free_;
};

}  // namespace fsda::core
