// fsda::la -- packed-weight GEMM micro-kernels with fused epilogues.
//
// The serving hot path (reconstruct -> classify, DESIGN.md §11) multiplies
// small activation batches (1..256 rows) against fixed trained weight
// matrices thousands of times.  The training kernels in kernels.hpp keep B
// in its row-major layout and re-stream it per call; here the weights are
// re-laid out ONCE into a panel-major PackedB (contiguous k x 8 column
// slabs, zero-padded at the right edge) so the inner loop always reads
// unit-stride full-width vectors, and the bias add plus activation are
// fused into the same pass over the output -- no intermediate activation
// matrix is ever materialized.
//
// Two kernels sit behind gemm_packed():
//   - an AVX2/FMA micro-kernel (4 output rows x 8 columns per register
//     tile), selected at runtime when the CPU supports it;
//   - a portable scalar kernel whose accumulation order matches
//     matmul_into (per output element: k ascending), so its results agree
//     with the training kernel to the ULP (the compiler's FMA grouping
//     differs with loop structure, so the match is ~1e-12, not bitwise).
// The choice can be forced with set_gemm_isa() (tests exercise both).
//
// The training path (DESIGN.md §12) runs on the same engine:
//   - pack_transposed() lays out Bᵀ in the identical panel format, so the
//     backward-pass dX = dY·Wᵀ is just gemm_packed() against the transposed
//     pack -- packed once per step, reused across the step's backward calls;
//   - gemm_grad_weights() computes dW (+)= Aᵀ·dY directly from the row-major
//     activations (A changes every call, so packing it would not amortize),
//     with a scalar kernel whose per-element accumulation chain matches
//     transposed_matmul_into and an AVX2/FMA variant of the same shape.
// Both large-shape entry points split output rows (gemm_packed) or dW rows
// (gemm_grad_weights) across the thread pool above a flop threshold; row
// partitioning never splits a per-element accumulation chain, so threaded
// results are bitwise identical to serial ones.
//
// Nothing here allocates after PackedB::pack(); all routines write into
// caller-owned views.
#pragma once

#include <cstddef>
#include <vector>

#include "la/view.hpp"

namespace fsda::la {

/// Multiply-adds (m*k*n) from which gemm_packed, gemm_grad_weights and the
/// matmul kernels (kernels.hpp) split their rows across the thread pool.
/// Below it a fork-join costs more than it saves: on a 4-vCPU AVX2 host a
/// 64x64x32 forward GEMM takes ~9 us serial and ~11 us split four ways,
/// 64x64x64 ~20 us against ~16 us.
inline constexpr std::size_t kParallelFlopThreshold = std::size_t{1} << 18;

/// Parameter elements from which nn::Adam::step (and an optimizer's
/// zero_grad) sweeps all its parameters in one pool region instead of on
/// the calling thread.  Same host, warm
/// pool, fused sweep inline vs split four ways: 2048 elements ~7.2 us vs
/// ~7.8 us, 4096 ~14.7 vs ~12.5, 8192 ~29.6 vs ~17.5.
inline constexpr std::size_t kParallelAdamElements = std::size_t{1} << 13;

/// Rows per block of an nn::Pass (nn/layer.hpp): a pass over m rows splits
/// a stretch of a network into ceil(m / kParallelPassRows) row blocks that
/// the participants of one region claim in turn, and runs inline when that
/// is one block.
inline constexpr std::size_t kParallelPassRows = 12;

/// Rows per block of nn::forward_rows_into, the eval-mode forward every
/// whole-matrix scoring call runs (reconstruct(), predict_proba()): a call
/// over m rows runs ceil(m / kForwardBlockRows) passes on one workspace, so
/// its activations take one block's memory whatever m is.  Each block still
/// spans ~11 pass blocks, enough to keep a 4-way pool busy.
inline constexpr std::size_t kForwardBlockRows = 128;

/// Instruction-set choice for gemm_packed.  Auto resolves to Avx2 when the
/// CPU supports AVX2+FMA, Scalar otherwise.
enum class GemmIsa { Auto, Scalar, Avx2 };

/// True when this process can run the AVX2/FMA micro-kernel (compiled in
/// AND supported by the CPU).
[[nodiscard]] bool gemm_avx2_available();

/// Forces the ISA used by gemm_packed (tests and benchmarks); Auto restores
/// runtime detection.  Forcing Avx2 on a CPU without it falls back to
/// Scalar rather than faulting.
void set_gemm_isa(GemmIsa isa);

/// The ISA gemm_packed will actually run with right now.
[[nodiscard]] GemmIsa active_gemm_isa();

/// Activation fused into the epilogue of gemm_packed.  ReLU and LeakyReLU
/// run vectorized inside the micro-kernel tile; Tanh/Sigmoid/Softmax are
/// applied in a second in-place sweep over the destination (still no
/// separate activation matrix), using exactly the same scalar expressions
/// as the nn layers so plan-vs-layer outputs agree.
enum class GemmAct { None, ReLU, LeakyReLU, Tanh, Sigmoid, Softmax };

/// Fused epilogue: out = act(a * B + bias).  `bias` is nullptr or a 1 x n
/// row; `leaky_alpha` feeds LeakyReLU only.
struct GemmEpilogue {
  const double* bias = nullptr;
  GemmAct act = GemmAct::None;
  double leaky_alpha = 0.2;
};

/// Weight matrix re-laid out for the packed kernels: column panels of
/// width kPanel, each stored as a contiguous k x kPanel slab (row-major
/// within the slab), right edge zero-padded.  Pack once at plan-build
/// time; pack() reuses the existing buffer capacity on repack.
class PackedB {
 public:
  static constexpr std::size_t kPanel = 8;

  PackedB() = default;

  /// Packs `b` (k x n, any row stride).  O(k*n) copy, done once per plan.
  void pack(ConstMatrixView b);

  /// Packs bᵀ without materializing the transpose: after this call the pack
  /// represents a b.cols() x b.rows() matrix, so gemm_packed(dY, pack)
  /// computes dY·bᵀ with the forward micro-kernels.  Same O(k*n) cost and
  /// capacity reuse as pack().
  void pack_transposed(ConstMatrixView b);

  [[nodiscard]] std::size_t rows() const { return k_; }
  [[nodiscard]] std::size_t cols() const { return n_; }
  [[nodiscard]] bool empty() const { return k_ == 0 || n_ == 0; }
  [[nodiscard]] std::size_t num_panels() const {
    return (n_ + kPanel - 1) / kPanel;
  }
  /// Contiguous k x kPanel slab for panel p (covers columns
  /// [p*kPanel, min(n, (p+1)*kPanel)), padded lanes are zero).
  [[nodiscard]] const double* panel(std::size_t p) const {
    return data_.data() + p * k_ * kPanel;
  }

 private:
  /// Sizes data_ for the current k_ x n_ and zeroes the padded lanes of the
  /// last panel; the packers overwrite every other element.
  void resize_and_zero_padding();

  std::vector<double> data_;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
};

/// out = act(a * B + bias).  Shapes: (m x k) * (k x n) -> (m x n); `out`
/// may be strided (e.g. a column block of a wider assembly buffer) and
/// must not alias `a`.  Dispatches to the AVX2 or scalar micro-kernel per
/// set_gemm_isa()/runtime detection.  Allocation-free.
void gemm_packed(ConstMatrixView a, const PackedB& b, MatrixView out,
                 const GemmEpilogue& epilogue = {});

/// Weight gradient of an affine layer: dw (+)= aᵀ * dy, shapes
/// (m x k)ᵀ * (m x n) -> (k x n).  `accumulate` adds into dw (the layer
/// convention); otherwise dw is overwritten.  Dispatches per
/// set_gemm_isa()/runtime detection and splits dw rows across the thread
/// pool above a flop threshold (bitwise-stable: every dw element keeps one
/// ascending accumulation chain over the batch rows).  Allocation-free.
void gemm_grad_weights(ConstMatrixView a, ConstMatrixView dy, MatrixView dw,
                       bool accumulate);

namespace detail {
/// Scalar micro-kernel (also the reference for the AVX2 path); public in
/// detail for the property tests.  Computes out = a*B + bias with optional
/// fused ReLU/LeakyReLU; transcendental activations are handled by
/// gemm_packed.
void gemm_packed_scalar(ConstMatrixView a, const PackedB& b, MatrixView out,
                        const GemmEpilogue& epilogue);
/// AVX2/FMA micro-kernel; only callable when gemm_avx2_available().
void gemm_packed_avx2(ConstMatrixView a, const PackedB& b, MatrixView out,
                      const GemmEpilogue& epilogue);
/// Scalar weight-gradient kernel: per dw element one ascending chain over
/// the batch rows, matching transposed_matmul_into.
void gemm_grad_weights_scalar(ConstMatrixView a, ConstMatrixView dy,
                              MatrixView dw, bool accumulate);
/// AVX2/FMA weight-gradient kernel (8-wide j vectorization, same i-ascending
/// chain per element); only callable when gemm_avx2_available().
void gemm_grad_weights_avx2(ConstMatrixView a, ConstMatrixView dy,
                            MatrixView dw, bool accumulate);
/// True when the AVX2 TU was compiled with AVX2+FMA support.
[[nodiscard]] bool gemm_avx2_compiled();
}  // namespace detail

}  // namespace fsda::la
