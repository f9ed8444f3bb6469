// fsda::core -- interface for variant-feature reconstructors.
//
// Step 2 of the paper's framework: a model trained *exclusively on source
// data* that estimates P(X_var | X_inv) and, at inference, maps a target
// sample's variant features back onto the source distribution.  The paper's
// primary instantiation is the conditional GAN (Section V-C); the ablation
// of Table II swaps in a VAE and a vanilla autoencoder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "la/view.hpp"

namespace fsda::common {
class Rng;
}  // namespace fsda::common
namespace fsda::nn {
class Layer;
}  // namespace fsda::nn

namespace fsda::core {

class MeanImputeReconstructor;

/// What a serving session (core/inference_session.hpp) runs in place of
/// reconstruct(): the eval-mode network over side-by-side [x_inv | noise]
/// rows, or -- for the one non-network fallback -- its const row routine.
struct ServingStage {
  /// Maps [x_inv | noise] rows to x_var rows; null for MeanImpute.
  nn::Layer* net = nullptr;
  /// Width of the noise block (0: the network reads x_inv alone).
  std::size_t noise_dim = 0;
  /// The stream reconstruct() draws its row-major N(0,1) noise from.
  common::Rng* noise_stream = nullptr;
  /// Set instead of `net` by the MeanImpute fallback.
  const MeanImputeReconstructor* mean_impute = nullptr;
};

/// Learns X_var from X_inv on source data; reconstructs at inference.
class Reconstructor {
 public:
  virtual ~Reconstructor() = default;

  /// Trains on source-domain rows: invariant block, variant block, labels.
  /// Labels are used only by conditional variants (the paper's discriminator
  /// conditioning, eq. 7); unconditional ones ignore them.
  virtual void fit(const la::Matrix& x_inv, const la::Matrix& x_var,
                   const std::vector<std::int64_t>& labels,
                   std::size_t num_classes) = 0;

  /// Generates variant features for each row of x_inv (eq. 10).  Stochastic
  /// reconstructors draw fresh noise per call.  `x_inv` may be a strided
  /// view -- a column block of a wider matrix -- which is read in place.
  [[nodiscard]] virtual la::Matrix reconstruct(la::ConstMatrixView x_inv) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// The fitted reconstructor's serving form.  A session compiles `net`
  /// into a packed plan and, on a context without a private stream, draws
  /// noise from `noise_stream` exactly as reconstruct() does, so the two
  /// agree draw for draw.  Pointers stay valid until the next fit().
  [[nodiscard]] virtual ServingStage serving_stage() = 0;

  /// False when the last fit() diverged and exhausted its retry budget; the
  /// pipeline then swaps in the degraded-mode fallback (core/health.hpp).
  [[nodiscard]] virtual bool healthy() const { return true; }

  /// Extra fit() attempts consumed by divergence recovery.
  [[nodiscard]] virtual std::size_t fit_retries() const { return 0; }

  /// Parameter rollbacks performed by divergence recovery.
  [[nodiscard]] virtual std::size_t fit_rollbacks() const { return 0; }

  /// Requests that the NEXT fit() start from `previous`'s trained weights
  /// instead of a fresh initialization (re-adaptation fast path, DESIGN.md
  /// §16).  Returns false -- and leaves the next fit() cold -- when the
  /// model kinds or architectures are incompatible.  One-shot: the request
  /// is consumed by the next fit(), and a warm attempt that diverges falls
  /// back to the cold initialization inside the usual retry ladder.
  virtual bool warm_start_from(const Reconstructor& previous) {
    (void)previous;
    return false;
  }

  /// True when the last fit() actually started from warm weights.
  [[nodiscard]] virtual bool warm_started() const { return false; }
};

using ReconstructorPtr = std::unique_ptr<Reconstructor>;

/// Factory signature used by the pipeline (seeded for determinism).
using ReconstructorFactory =
    std::function<ReconstructorPtr(std::size_t inv_dim, std::size_t var_dim,
                                   std::uint64_t seed)>;

}  // namespace fsda::core
