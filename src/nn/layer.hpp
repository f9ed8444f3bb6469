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
// Staged passes (DESIGN.md §12).  A layer implements stage_forward() and
// stage_backward(): on the calling thread it checks shapes, sizes its
// workspace buffers, packs weights and queues its work on a Pass -- a
// row-local stage that maps rows [r0, r1) of its input to the same rows of
// its output, an optional set-up task (a dropout mask draw), and in
// backward a parameter-gradient stage.  The Pass runs every queued row
// stage of a stretch of the network in ONE pool region, each participant
// carrying its block of rows through all of them, and opens a new region
// only at a barrier: a layer whose set-up reads the whole batch (batch
// norm's column statistics and backward column sums) calls
// Pass::barrier() first.  Parameter gradients need every row, so they run
// last, in one region split over parameter rows.  Every element is computed
// by the same expression and every reduction keeps its order whichever
// thread runs it, so a pass gives bit-identical results on any thread count.
// forward()/backward() wrap one staged pass; containers stage their
// children into the caller's pass.
//
// Ownership (DESIGN.md §7): workspaces hold every batch-sized buffer, a fit
// owns its training workspace, and a scoring call owns its scratch, so a
// trained network keeps no batch memory once the call that sized it
// returns.  Whole-matrix scoring calls run through forward_rows_into(), so
// that scratch is bounded by a row block, not by the call's row count.
// Returned references point into workspace-owned buffers, so a
// steady-state training step allocates nothing.  The value-returning
// forward(input, training) / backward(grad) API remains as wrappers that
// route through a private per-layer workspace; it is convenient for tests
// and cold paths but pays a copy per call and keeps that workspace alive
// with the layer.
//
// Contract for workspace passes: the input reference handed to the
// workspace forward() must stay alive (and unmoved) until the matching
// backward() completes, and backward() must get the workspace its forward
// ran on -- layers cache pointers into both, not copies.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "la/view.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

/// Process-unique, monotonically increasing version tag (never 0, which
/// Workspace::packed reserves as its "never packed" sentinel).
[[nodiscard]] std::uint64_t next_parameter_version();

/// A trainable tensor: value and accumulated gradient of identical shape.
///
/// `version` changes whenever `value` changes -- optimizer steps and
/// snapshot restores (warm starts included) both bump it.
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

/// Queue and executor of one staged pass (see the file header).  Lives on
/// the stack of the forward()/backward() call that owns the pass; layers
/// add work during their set-up and the pass runs it at barriers.  The
/// queues have fixed capacity, so a pass never allocates; a full queue
/// just ends the stretch early (an extra barrier never changes results).
class Pass {
 public:
  /// A pass over `rows` batch rows.
  explicit Pass(std::size_t rows);
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  /// Queues (obj->*Fn)(r0, r1): writes rows [r0, r1) of the layer's output
  /// from the same rows of buffers that earlier stages or regions wrote.
  /// It must not allocate, pack, draw random numbers or read other rows.
  template <typename T, void (T::*Fn)(std::size_t, std::size_t)>
  void row_stage(T* obj) {
    if (num_row_ == kMaxRowStages) barrier();
    row_[num_row_++] = {obj, &invoke_range<T, Fn>, 0, 0};
  }

  /// Queues (obj->*Fn)() to run on the set-up side of the current stretch,
  /// before any of its row stages.  Set-up tasks of one stretch may run
  /// concurrently with each other (one per participant), so each must touch
  /// only its own layer's state -- e.g. one dropout layer's mask stream.
  template <typename T, void (T::*Fn)()>
  void setup_task(T* obj) {
    if (num_setup_ == kMaxSetupTasks) barrier();
    setup_[num_setup_++] = {obj, &invoke_plain<T, Fn>};
  }

  /// Queues (obj->*Fn)(u0, u1) for the final parameter-gradient stage:
  /// `units` independent pieces of work (weight rows, a bias row, ...)
  /// costing about `unit_cost` multiply-adds each.  Runs after every row
  /// stage of the pass, split over units, so it may read whole-batch
  /// activations and gradients.
  template <typename T, void (T::*Fn)(std::size_t, std::size_t)>
  void param_stage(T* obj, std::size_t units, std::size_t unit_cost) {
    if (num_param_ == kMaxParamStages) {
      barrier();
      run_param_stages();
    }
    param_[num_param_++] = {obj, &invoke_range<T, Fn>, units,
                            unit_cost > 0 ? unit_cost : 1};
  }

  /// Runs task() on the calling thread inside the pass's next row region,
  /// before that thread claims row blocks, so serial work the caller owes
  /// anyway (drawing the next pass's inputs) overlaps the rows the other
  /// participants carry; at the next barrier, before the rows, when the
  /// pass runs inline.  `task` must outlive the pass and touch nothing the
  /// pass reads or writes.
  template <typename F>
  void caller_task(const F& task) {
    caller_ = {&task, &invoke_callable<F>};
  }

  /// Ends the current stretch: runs its set-up tasks, then its row stages
  /// in one pool region (inline when the batch is too small to split or
  /// the caller already runs inside a region).
  void barrier();

  /// barrier(), then every queued parameter-gradient stage.
  void finish();

 private:
  struct Task {
    void* obj;
    void (*fn)(void*, std::size_t, std::size_t);
    std::size_t units;
    std::size_t unit_cost;
  };
  struct Setup {
    void* obj;
    void (*fn)(void*);
  };
  struct CallerTask {
    const void* obj;
    void (*fn)(const void*);
  };

  template <typename T, void (T::*Fn)(std::size_t, std::size_t)>
  static void invoke_range(void* obj, std::size_t a, std::size_t b) {
    (static_cast<T*>(obj)->*Fn)(a, b);
  }
  template <typename T, void (T::*Fn)()>
  static void invoke_plain(void* obj) {
    (static_cast<T*>(obj)->*Fn)();
  }
  template <typename F>
  static void invoke_callable(const void* obj) {
    (*static_cast<const F*>(obj))();
  }

  /// Runs and clears the pending caller task, if any.
  void run_caller_task();

  void run_param_stages();

  static constexpr std::size_t kMaxRowStages = 32;
  static constexpr std::size_t kMaxSetupTasks = 8;
  static constexpr std::size_t kMaxParamStages = 16;

  std::size_t rows_;
  std::size_t blocks_;  // row blocks of la::kParallelPassRows rows
  std::size_t parts_;   // participants per row region (1 = inline)
  std::array<Task, kMaxRowStages> row_{};
  std::array<Setup, kMaxSetupTasks> setup_{};
  std::array<Task, kMaxParamStages> param_{};
  CallerTask caller_{nullptr, nullptr};
  std::size_t num_row_ = 0;
  std::size_t num_setup_ = 0;
  std::size_t num_param_ = 0;
};

/// Base class for all layers.  Batches are row-major: one sample per row.
class Layer {
 public:
  virtual ~Layer();

  /// Computes the layer output for a batch into a workspace buffer;
  /// `training` toggles behaviours such as dropout masking and batch-norm
  /// statistics accumulation.  The returned reference points into `ws` (or
  /// at `input` for identity-at-inference layers) and stays valid until the
  /// same (layer, workspace) pair runs forward again.  Runs one staged pass.
  const la::Matrix& forward(const la::Matrix& input, bool training,
                            Workspace& ws);

  /// Backpropagates `grad_output` (dL/d output of the most recent forward),
  /// accumulating parameter gradients, and returns dL/d input as a reference
  /// into `ws`.  When ws.input_grad_enabled() is false the caller discards
  /// dL/d input, and the layer may leave it uncomputed.  Runs one staged
  /// pass.
  const la::Matrix& backward(const la::Matrix& grad_output, Workspace& ws);

  /// Stages this layer's part of a forward pass on `pass` (see the file
  /// header) and returns its output buffer, sized; its rows are written
  /// once the pass reaches its next barrier.
  virtual const la::Matrix& stage_forward(const la::Matrix& input,
                                          bool training, Workspace& ws,
                                          Pass& pass) = 0;

  /// Stages this layer's part of a backward pass.  The workspace flags
  /// (input_grad_enabled, param_grads_enabled) are read here, at set-up:
  /// containers change them while they stage their children.
  virtual const la::Matrix& stage_backward(const la::Matrix& grad_output,
                                           Workspace& ws, Pass& pass) = 0;

  /// Value-returning convenience wrappers over the workspace interface.
  /// They copy the input into a layer-private workspace (so temporaries are
  /// safe to pass) and copy the result out.
  la::Matrix forward(const la::Matrix& input, bool training);
  la::Matrix backward(const la::Matrix& grad_output);

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Invokes `fn` on each direct child layer (containers only; leaf layers
  /// have none).  Drives whole-network traversals without the containers
  /// exposing their internals.
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

/// Eval-mode forward of `net` over [parts[0] | parts[1] | ...] (the parts
/// side by side, equal row counts) into `out`, resized to rows x
/// net.output_size(total width).  Rows run in blocks of at most
/// `block_rows`: each block's input is assembled into one staging buffer of
/// `ws`, carried through `net` on `ws`, and copied into its rows of `out`,
/// so the call's scratch is one block deep whatever the row count
/// (DESIGN.md §7).  Every eval-mode layer is row-local -- batch norm reads
/// its running statistics, dropout is the identity, and a GEMM element's
/// accumulation chain does not depend on the rows around it -- so `out` is
/// bit-identical to one forward over all rows.
void forward_rows_into(Layer& net,
                       std::initializer_list<la::ConstMatrixView> parts,
                       la::Matrix& out, Workspace& ws,
                       std::size_t block_rows = la::kForwardBlockRows);

}  // namespace fsda::nn
