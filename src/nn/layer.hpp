// fsda::nn -- layer abstraction for the from-scratch neural network library.
//
// A layer's members are its parameters, running statistics and 1 x d batch
// statistics -- nothing sized by the batch.  forward() writes its output and
// whatever backward() needs (batch norm's normalized input, dropout's mask)
// into an nn::Workspace and keeps only pointers into it or to its input;
// backward() consumes the gradient w.r.t. the layer output, accumulates
// parameter gradients, and returns the gradient w.r.t. the layer input.
// The GAN training loop exploits this split: the generator's gradient is
// obtained by backpropagating through a frozen discriminator (backward()
// with parameter updates simply not applied).
//
// Ownership (DESIGN.md §7): workspaces hold every batch-sized buffer, a fit
// owns its training workspace, and a scoring call owns its scratch, so a
// trained network keeps no batch memory once the call that sized it
// returns.  Returned references point into workspace-owned buffers, so a
// steady-state training step allocates nothing.  The value-returning
// forward(input, training) / backward(grad) API remains as non-virtual
// wrappers that route through a private per-layer workspace; it is
// convenient for tests and cold paths but pays a copy per call and keeps
// that workspace alive with the layer.
//
// Contract for workspace passes: the input reference handed to the
// workspace forward() must stay alive (and unmoved) until the matching
// backward() completes, and backward() must get the workspace its forward
// ran on -- layers cache pointers into both, not copies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

/// Process-unique, monotonically increasing version tag (never 0, which
/// Workspace::packed reserves as its "never packed" sentinel).
[[nodiscard]] std::uint64_t next_parameter_version();

/// A trainable tensor: value and accumulated gradient of identical shape.
///
/// `version` changes whenever `value` changes -- optimizer steps, parameter
/// loads, snapshot restores, and shard broadcasts all bump or overwrite it.
/// Workspace::packed keys its weight-panel cache on it, so a pack is reused
/// across every forward/backward of a step and rebuilt exactly once per
/// update.  Code that writes `value` directly must call bump_version().
struct Parameter {
  la::Matrix value;
  la::Matrix grad;
  std::uint64_t version = next_parameter_version();

  explicit Parameter(la::Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols(), 0.0) {}

  /// Zeroes the gradient in place (no reallocation).
  void zero_grad() { grad.fill(0.0); }

  /// Marks `value` as modified (invalidates cached packs).
  void bump_version() { version = next_parameter_version(); }
};

/// Base class for all layers.  Batches are row-major: one sample per row.
class Layer {
 public:
  virtual ~Layer();

  /// Computes the layer output for a batch into a workspace buffer;
  /// `training` toggles behaviours such as dropout masking and batch-norm
  /// statistics accumulation.  The returned reference points into `ws` (or
  /// at `input` for identity-at-inference layers) and stays valid until the
  /// same (layer, workspace) pair runs forward again.
  virtual const la::Matrix& forward(const la::Matrix& input, bool training,
                                    Workspace& ws) = 0;

  /// Backpropagates `grad_output` (dL/d output of the most recent forward),
  /// accumulating parameter gradients, and returns dL/d input as a reference
  /// into `ws`.  When ws.input_grad_enabled() is false the caller discards
  /// dL/d input, and the layer may leave it uncomputed.
  virtual const la::Matrix& backward(const la::Matrix& grad_output,
                                     Workspace& ws) = 0;

  /// Value-returning convenience wrappers over the workspace interface.
  /// They copy the input into a layer-private workspace (so temporaries are
  /// safe to pass) and copy the result out.
  la::Matrix forward(const la::Matrix& input, bool training);
  la::Matrix backward(const la::Matrix& grad_output);

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Invokes `fn` on each direct child layer (containers only; leaf layers
  /// have none).  Drives whole-network traversals such as the sharded
  /// trainer's dropout reseeding without the containers exposing their
  /// internals.
  virtual void for_each_child(const std::function<void(Layer&)>& fn) {
    (void)fn;
  }

  /// Human-readable layer name for diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Output width given an input width (used for shape validation).
  [[nodiscard]] virtual std::size_t output_size(std::size_t input_size) const {
    return input_size;
  }

 private:
  /// Lazily-created workspace backing the legacy value API.
  Workspace& own_workspace();
  std::unique_ptr<Workspace> own_ws_;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Collects the parameters of many layers into one flat list.
std::vector<Parameter*> collect_parameters(
    const std::vector<LayerPtr>& layers);

/// Zeroes all gradients in a parameter list.
void zero_gradients(const std::vector<Parameter*>& params);

}  // namespace fsda::nn
