#include "la/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace fsda::la {

namespace {

std::atomic<GemmIsa> g_forced_isa{GemmIsa::Auto};

bool cpu_has_avx2_fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// Applies the transcendental epilogues in place over the destination.
/// Expressions mirror the nn activation layers exactly (activations.cpp),
/// so a fused plan stays within rounding noise of the layer-API forward.
void apply_transcendental(MatrixView out, GemmAct act) {
  switch (act) {
    case GemmAct::Tanh:
      for (std::size_t r = 0; r < out.rows(); ++r) {
        double* o = out.row_data(r);
        for (std::size_t c = 0; c < out.cols(); ++c) o[c] = std::tanh(o[c]);
      }
      break;
    case GemmAct::Sigmoid:
      for (std::size_t r = 0; r < out.rows(); ++r) {
        double* o = out.row_data(r);
        for (std::size_t c = 0; c < out.cols(); ++c) {
          const double x = o[c];
          if (x >= 0.0) {
            o[c] = 1.0 / (1.0 + std::exp(-x));
          } else {
            const double e = std::exp(x);
            o[c] = e / (1.0 + e);
          }
        }
      }
      break;
    case GemmAct::Softmax:
      // Same max-shifted algorithm as nn::softmax_rows_into.
      for (std::size_t r = 0; r < out.rows(); ++r) {
        double* o = out.row_data(r);
        const std::size_t n = out.cols();
        double mx = o[0];
        for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, o[c]);
        double total = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
          o[c] = std::exp(o[c] - mx);
          total += o[c];
        }
        FSDA_CHECK_MSG(total > 0.0, "gemm softmax row summed to zero");
        for (std::size_t c = 0; c < n; ++c) o[c] /= total;
      }
      break;
    default:
      break;
  }
}

void check_grad_weight_shapes(ConstMatrixView a, ConstMatrixView dy,
                              MatrixView dw) {
  FSDA_CHECK_MSG(a.rows() == dy.rows(),
                 "gemm_grad_weights: batch mismatch, a has "
                     << a.rows() << " rows, dy has " << dy.rows());
  FSDA_CHECK_MSG(dw.rows() == a.cols() && dw.cols() == dy.cols(),
                 "gemm_grad_weights: destination is "
                     << dw.rows() << "x" << dw.cols() << ", expected "
                     << a.cols() << "x" << dy.cols());
  FSDA_CHECK_MSG(!views_overlap(dw, a) && !views_overlap(dw, dy),
                 "gemm_grad_weights: destination aliases an input");
}

void check_gemm_shapes(ConstMatrixView a, const PackedB& b, MatrixView out) {
  FSDA_CHECK_MSG(a.cols() == b.rows(), "gemm_packed: " << a.rows() << "x"
                                                       << a.cols() << " * "
                                                       << b.rows() << "x"
                                                       << b.cols());
  FSDA_CHECK_MSG(out.rows() == a.rows() && out.cols() == b.cols(),
                 "gemm_packed: destination is " << out.rows() << "x"
                                                << out.cols() << ", expected "
                                                << a.rows() << "x"
                                                << b.cols());
  FSDA_CHECK_MSG(!views_overlap(out, a),
                 "gemm_packed: destination aliases the input");
}

}  // namespace

void PackedB::resize_and_zero_padding() {
  const std::size_t panels = num_panels();
  data_.resize(panels * k_ * kPanel);
  // The packers overwrite every lane but the padding of a partial last
  // panel; zeroing only that keeps packing to one pass over the slab.
  const std::size_t width = n_ % kPanel;  // columns in a partial last panel
  if (width == 0) return;
  double* slab = data_.data() + (panels - 1) * k_ * kPanel;
  for (std::size_t k = 0; k < k_; ++k) {
    std::fill(slab + k * kPanel + width, slab + (k + 1) * kPanel, 0.0);
  }
}

void PackedB::pack(ConstMatrixView b) {
  k_ = b.rows();
  n_ = b.cols();
  const std::size_t panels = num_panels();
  resize_and_zero_padding();
  for (std::size_t p = 0; p < panels; ++p) {
    double* slab = data_.data() + p * k_ * kPanel;
    const std::size_t c0 = p * kPanel;
    const std::size_t width = std::min(kPanel, n_ - c0);
    for (std::size_t k = 0; k < k_; ++k) {
      const double* brow = b.row_data(k) + c0;
      double* dst = slab + k * kPanel;
      for (std::size_t j = 0; j < width; ++j) dst[j] = brow[j];
    }
  }
}

void PackedB::pack_transposed(ConstMatrixView b) {
  k_ = b.cols();
  n_ = b.rows();
  const std::size_t panels = num_panels();
  resize_and_zero_padding();
  // Panel p covers rows [c0, c0+width) of b, i.e. columns of bᵀ; lane j at
  // depth k holds bᵀ(k, c0+j) = b(c0+j, k).  Reads are contiguous along the
  // source row, writes stride kPanel within the slab.
  for (std::size_t p = 0; p < panels; ++p) {
    double* slab = data_.data() + p * k_ * kPanel;
    const std::size_t c0 = p * kPanel;
    const std::size_t width = std::min(kPanel, n_ - c0);
    for (std::size_t j = 0; j < width; ++j) {
      const double* brow = b.row_data(c0 + j);
      for (std::size_t k = 0; k < k_; ++k) slab[k * kPanel + j] = brow[k];
    }
  }
}

bool gemm_avx2_available() {
  static const bool available = detail::gemm_avx2_compiled() &&
                                cpu_has_avx2_fma();
  return available;
}

void set_gemm_isa(GemmIsa isa) {
  g_forced_isa.store(isa, std::memory_order_relaxed);
}

GemmIsa active_gemm_isa() {
  const GemmIsa forced = g_forced_isa.load(std::memory_order_relaxed);
  if (forced == GemmIsa::Scalar) return GemmIsa::Scalar;
  if (forced == GemmIsa::Avx2) {
    return gemm_avx2_available() ? GemmIsa::Avx2 : GemmIsa::Scalar;
  }
  return gemm_avx2_available() ? GemmIsa::Avx2 : GemmIsa::Scalar;
}

namespace detail {

void gemm_packed_scalar(ConstMatrixView a, const PackedB& b, MatrixView out,
                        const GemmEpilogue& epi) {
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t n = b.cols();
  constexpr std::size_t NR = PackedB::kPanel;
  const bool relu = epi.act == GemmAct::ReLU;
  const bool leaky = epi.act == GemmAct::LeakyReLU;
  const double alpha = epi.leaky_alpha;
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.row_data(i);
    double* orow = out.row_data(i);
    for (std::size_t p = 0; p * NR < n; ++p) {
      const double* __restrict slab = b.panel(p);
      const std::size_t c0 = p * NR;
      const std::size_t width = std::min(NR, n - c0);
      double acc[NR] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
      // k ascending per output element: the same accumulation chain as
      // matmul_into, so the scalar path agrees with the training kernel
      // to the ULP (pinned at 1e-12 by inference_test; the compiler's FMA
      // grouping keeps it from being bitwise).
      for (std::size_t k = 0; k < kk; ++k) {
        const double c = arow[k];
        const double* __restrict bk = slab + k * NR;
        for (std::size_t j = 0; j < NR; ++j) acc[j] += c * bk[j];
      }
      if (epi.bias != nullptr) {
        const double* bias = epi.bias + c0;
        for (std::size_t j = 0; j < width; ++j) acc[j] += bias[j];
      }
      if (relu) {
        for (std::size_t j = 0; j < width; ++j) {
          acc[j] = acc[j] > 0.0 ? acc[j] : 0.0;
        }
      } else if (leaky) {
        for (std::size_t j = 0; j < width; ++j) {
          acc[j] = acc[j] > 0.0 ? acc[j] : alpha * acc[j];
        }
      }
      for (std::size_t j = 0; j < width; ++j) orow[c0 + j] = acc[j];
    }
  }
}

void gemm_grad_weights_scalar(ConstMatrixView a, ConstMatrixView dy,
                              MatrixView dw, bool accumulate) {
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t n = dy.cols();
  // k outer so each dw row is finished in one sweep; per dw element the
  // accumulation runs i ascending -- the same chain as transposed_matmul_into.
  for (std::size_t k = 0; k < kk; ++k) {
    double* __restrict out = dw.row_data(k);
    if (!accumulate) std::fill_n(out, n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      const double c = a.row_data(i)[k];
      const double* __restrict g = dy.row_data(i);
      for (std::size_t j = 0; j < n; ++j) out[j] += c * g[j];
    }
  }
}

}  // namespace detail

void gemm_packed(ConstMatrixView a, const PackedB& b, MatrixView out,
                 const GemmEpilogue& epilogue) {
  check_gemm_shapes(a, b, out);
  if (out.empty()) return;
  const bool avx2 = active_gemm_isa() == GemmIsa::Avx2;
  auto run = [&](std::size_t r0, std::size_t r1) {
    const ConstMatrixView ab = a.row_block(r0, r1 - r0);
    const MatrixView ob = out.row_block(r0, r1 - r0);
    if (avx2) {
      detail::gemm_packed_avx2(ab, b, ob, epilogue);
    } else {
      detail::gemm_packed_scalar(ab, b, ob, epilogue);
    }
  };
  // Row partitioning never splits a per-element accumulation chain, so the
  // threaded result is bitwise identical to the serial one.
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  if (flops >= kParallelFlopThreshold && a.rows() >= 8) {
    common::parallel_for_chunked(a.rows(), run);
  } else {
    run(0, a.rows());
  }
  apply_transcendental(out, epilogue.act);
}

void gemm_grad_weights(ConstMatrixView a, ConstMatrixView dy, MatrixView dw,
                       bool accumulate) {
  check_grad_weight_shapes(a, dy, dw);
  if (dw.empty()) return;
  const bool avx2 = active_gemm_isa() == GemmIsa::Avx2;
  auto run = [&](std::size_t k0, std::size_t k1) {
    const ConstMatrixView ab = a.col_block(k0, k1 - k0);
    const MatrixView dwb = dw.row_block(k0, k1 - k0);
    if (avx2) {
      detail::gemm_grad_weights_avx2(ab, dy, dwb, accumulate);
    } else {
      detail::gemm_grad_weights_scalar(ab, dy, dwb, accumulate);
    }
  };
  // Partitioned over dw rows (input features), NOT batch rows: splitting the
  // batch would split each element's i-ascending chain and break the
  // serial==threaded bitwise guarantee.
  const std::size_t flops = a.rows() * a.cols() * dy.cols();
  if (flops >= kParallelFlopThreshold && dw.rows() >= 8) {
    common::parallel_for_chunked(dw.rows(), run);
  } else {
    run(0, dw.rows());
  }
}

}  // namespace fsda::la
