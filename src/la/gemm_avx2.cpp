// AVX2/FMA micro-kernel for gemm_packed.  This translation unit is the only
// one compiled with -mavx2 -mfma (see la/CMakeLists.txt); callers reach it
// exclusively through the runtime dispatch in gemm.cpp, which checks
// __builtin_cpu_supports before jumping here, so the binary stays safe on
// older x86-64 and non-x86 hosts (where the stub below reports the kernel
// as not compiled).
//
// Register tile: 6 output rows x 8 columns = 12 ymm accumulators plus one
// broadcast register per A row and two B loads per k step (15 of the 16 ymm
// registers).  Six rows matter on a single port-pair: with 8 accumulators
// each chain is touched every ~4 cycles, inside FMA latency, so the 4x8
// tile stalls; 12 accumulators space the chains past the latency and keep
// both FMA ports busy.  Accumulation per output element runs over k in
// ascending order regardless of the row grouping, matching the scalar
// kernel and matmul_into up to FMA rounding (the fused multiply-add rounds
// once where the scalar path rounds twice -- within 1e-12 over the depths
// used here, which inference_test pins).
#include "la/gemm.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>

namespace fsda::la::detail {

#if defined(__AVX2__) && defined(__FMA__)

bool gemm_avx2_compiled() { return true; }

namespace {

/// Fused ReLU / LeakyReLU on a vector: exact vector forms of the scalar
/// expressions (max(0,x); x>0 ? x : alpha*x).
inline __m256d apply_act(__m256d v, GemmAct act, __m256d alpha) {
  if (act == GemmAct::ReLU) {
    return _mm256_max_pd(v, _mm256_setzero_pd());
  }
  if (act == GemmAct::LeakyReLU) {
    const __m256d scaled = _mm256_mul_pd(v, alpha);
    const __m256d mask = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ);
    return _mm256_blendv_pd(scaled, v, mask);
  }
  return v;
}

/// Stores the low `width` lanes of {lo, hi} to dst (width in (0, 8]).
inline void store_panel(double* dst, __m256d lo, __m256d hi,
                        std::size_t width) {
  if (width == PackedB::kPanel) {
    _mm256_storeu_pd(dst, lo);
    _mm256_storeu_pd(dst + 4, hi);
    return;
  }
  alignas(32) double tmp[PackedB::kPanel];
  _mm256_store_pd(tmp, lo);
  _mm256_store_pd(tmp + 4, hi);
  for (std::size_t j = 0; j < width; ++j) dst[j] = tmp[j];
}

}  // namespace

void gemm_packed_avx2(ConstMatrixView a, const PackedB& b, MatrixView out,
                      const GemmEpilogue& epi) {
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t n = b.cols();
  constexpr std::size_t NR = PackedB::kPanel;
  const GemmAct fused = (epi.act == GemmAct::ReLU ||
                         epi.act == GemmAct::LeakyReLU)
                            ? epi.act
                            : GemmAct::None;
  const __m256d valpha = _mm256_set1_pd(epi.leaky_alpha);
  for (std::size_t p = 0; p * NR < n; ++p) {
    const double* __restrict slab = b.panel(p);
    const std::size_t c0 = p * NR;
    const std::size_t width = std::min(NR, n - c0);
    __m256d bias_lo = _mm256_setzero_pd();
    __m256d bias_hi = _mm256_setzero_pd();
    if (epi.bias != nullptr) {
      if (width == NR) {
        bias_lo = _mm256_loadu_pd(epi.bias + c0);
        bias_hi = _mm256_loadu_pd(epi.bias + c0 + 4);
      } else {
        alignas(32) double tmp[NR] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (std::size_t j = 0; j < width; ++j) tmp[j] = epi.bias[c0 + j];
        bias_lo = _mm256_load_pd(tmp);
        bias_hi = _mm256_load_pd(tmp + 4);
      }
    }
    std::size_t i = 0;
    for (; i + 6 <= m; i += 6) {
      const double* a0 = a.row_data(i);
      const double* a1 = a.row_data(i + 1);
      const double* a2 = a.row_data(i + 2);
      const double* a3 = a.row_data(i + 3);
      const double* a4 = a.row_data(i + 4);
      const double* a5 = a.row_data(i + 5);
      __m256d acc0l = _mm256_setzero_pd(), acc0h = _mm256_setzero_pd();
      __m256d acc1l = _mm256_setzero_pd(), acc1h = _mm256_setzero_pd();
      __m256d acc2l = _mm256_setzero_pd(), acc2h = _mm256_setzero_pd();
      __m256d acc3l = _mm256_setzero_pd(), acc3h = _mm256_setzero_pd();
      __m256d acc4l = _mm256_setzero_pd(), acc4h = _mm256_setzero_pd();
      __m256d acc5l = _mm256_setzero_pd(), acc5h = _mm256_setzero_pd();
      // k unrolled by two: trims loop overhead per FMA without changing
      // any per-element accumulation order.
      const auto step = [&](std::size_t k) {
        const __m256d blo = _mm256_loadu_pd(slab + k * NR);
        const __m256d bhi = _mm256_loadu_pd(slab + k * NR + 4);
        __m256d cv = _mm256_set1_pd(a0[k]);
        acc0l = _mm256_fmadd_pd(cv, blo, acc0l);
        acc0h = _mm256_fmadd_pd(cv, bhi, acc0h);
        cv = _mm256_set1_pd(a1[k]);
        acc1l = _mm256_fmadd_pd(cv, blo, acc1l);
        acc1h = _mm256_fmadd_pd(cv, bhi, acc1h);
        cv = _mm256_set1_pd(a2[k]);
        acc2l = _mm256_fmadd_pd(cv, blo, acc2l);
        acc2h = _mm256_fmadd_pd(cv, bhi, acc2h);
        cv = _mm256_set1_pd(a3[k]);
        acc3l = _mm256_fmadd_pd(cv, blo, acc3l);
        acc3h = _mm256_fmadd_pd(cv, bhi, acc3h);
        cv = _mm256_set1_pd(a4[k]);
        acc4l = _mm256_fmadd_pd(cv, blo, acc4l);
        acc4h = _mm256_fmadd_pd(cv, bhi, acc4h);
        cv = _mm256_set1_pd(a5[k]);
        acc5l = _mm256_fmadd_pd(cv, blo, acc5l);
        acc5h = _mm256_fmadd_pd(cv, bhi, acc5h);
      };
      std::size_t k = 0;
      for (; k + 2 <= kk; k += 2) {
        step(k);
        step(k + 1);
      }
      if (k < kk) step(k);
      acc0l = apply_act(_mm256_add_pd(acc0l, bias_lo), fused, valpha);
      acc0h = apply_act(_mm256_add_pd(acc0h, bias_hi), fused, valpha);
      acc1l = apply_act(_mm256_add_pd(acc1l, bias_lo), fused, valpha);
      acc1h = apply_act(_mm256_add_pd(acc1h, bias_hi), fused, valpha);
      acc2l = apply_act(_mm256_add_pd(acc2l, bias_lo), fused, valpha);
      acc2h = apply_act(_mm256_add_pd(acc2h, bias_hi), fused, valpha);
      acc3l = apply_act(_mm256_add_pd(acc3l, bias_lo), fused, valpha);
      acc3h = apply_act(_mm256_add_pd(acc3h, bias_hi), fused, valpha);
      acc4l = apply_act(_mm256_add_pd(acc4l, bias_lo), fused, valpha);
      acc4h = apply_act(_mm256_add_pd(acc4h, bias_hi), fused, valpha);
      acc5l = apply_act(_mm256_add_pd(acc5l, bias_lo), fused, valpha);
      acc5h = apply_act(_mm256_add_pd(acc5h, bias_hi), fused, valpha);
      store_panel(out.row_data(i) + c0, acc0l, acc0h, width);
      store_panel(out.row_data(i + 1) + c0, acc1l, acc1h, width);
      store_panel(out.row_data(i + 2) + c0, acc2l, acc2h, width);
      store_panel(out.row_data(i + 3) + c0, acc3l, acc3h, width);
      store_panel(out.row_data(i + 4) + c0, acc4l, acc4h, width);
      store_panel(out.row_data(i + 5) + c0, acc5l, acc5h, width);
    }
    for (; i < m; ++i) {
      const double* arow = a.row_data(i);
      __m256d accl = _mm256_setzero_pd();
      __m256d acch = _mm256_setzero_pd();
      for (std::size_t k = 0; k < kk; ++k) {
        const __m256d cv = _mm256_set1_pd(arow[k]);
        accl = _mm256_fmadd_pd(cv, _mm256_loadu_pd(slab + k * NR), accl);
        acch = _mm256_fmadd_pd(cv, _mm256_loadu_pd(slab + k * NR + 4), acch);
      }
      accl = apply_act(_mm256_add_pd(accl, bias_lo), fused, valpha);
      acch = apply_act(_mm256_add_pd(acch, bias_hi), fused, valpha);
      store_panel(out.row_data(i) + c0, accl, acch, width);
    }
  }
}

namespace {

// Finishes columns [j0, j1) of one dw row, j1 - j0 a multiple of four, in
// 4-wide vector tiles.  Shared by the remainder paths of
// gemm_grad_weights_avx2.
void grad_weights_row_tail(ConstMatrixView a, ConstMatrixView dy,
                           double* __restrict out, std::size_t k,
                           std::size_t j0, std::size_t j1, bool accumulate) {
  const std::size_t m = a.rows();
  for (std::size_t j = j0; j + 4 <= j1; j += 4) {
    __m256d acc =
        accumulate ? _mm256_loadu_pd(out + j) : _mm256_setzero_pd();
    for (std::size_t i = 0; i < m; ++i) {
      const __m256d av = _mm256_set1_pd(a.row_data(i)[k]);
      acc = _mm256_fmadd_pd(av, _mm256_loadu_pd(dy.row_data(i) + j), acc);
    }
    _mm256_storeu_pd(out + j, acc);
  }
}

// Column j of dw, for the last n % 4 columns: too narrow for a column tile
// (the discriminator's 96->1 head has one), so the vectors run down dW rows
// instead -- a's row i is contiguous in k and dy(i, j) is one broadcast.
// Sixteen rows per pass keep four independent chains in flight.  Per
// element the chain is the same i-ascending fused multiply-add sequence as
// the column tiles, so the split of dw between the two paths never shows.
void grad_weights_narrow_column(ConstMatrixView a, ConstMatrixView dy,
                                MatrixView dw, std::size_t j,
                                bool accumulate) {
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  alignas(32) double acc[16];
  std::size_t k = 0;
  for (; k + 16 <= kk; k += 16) {
    for (std::size_t t = 0; t < 16; ++t) {
      acc[t] = accumulate ? dw.row_data(k + t)[j] : 0.0;
    }
    __m256d c0 = _mm256_load_pd(acc);
    __m256d c1 = _mm256_load_pd(acc + 4);
    __m256d c2 = _mm256_load_pd(acc + 8);
    __m256d c3 = _mm256_load_pd(acc + 12);
    for (std::size_t i = 0; i < m; ++i) {
      const double* __restrict arow = a.row_data(i) + k;
      const __m256d g = _mm256_set1_pd(dy.row_data(i)[j]);
      c0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow), g, c0);
      c1 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + 4), g, c1);
      c2 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + 8), g, c2);
      c3 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + 12), g, c3);
    }
    _mm256_store_pd(acc, c0);
    _mm256_store_pd(acc + 4, c1);
    _mm256_store_pd(acc + 8, c2);
    _mm256_store_pd(acc + 12, c3);
    for (std::size_t t = 0; t < 16; ++t) dw.row_data(k + t)[j] = acc[t];
  }
  for (; k + 4 <= kk; k += 4) {
    for (std::size_t t = 0; t < 4; ++t) {
      acc[t] = accumulate ? dw.row_data(k + t)[j] : 0.0;
    }
    __m256d c0 = _mm256_load_pd(acc);
    for (std::size_t i = 0; i < m; ++i) {
      const __m256d g = _mm256_set1_pd(dy.row_data(i)[j]);
      c0 = _mm256_fmadd_pd(_mm256_loadu_pd(a.row_data(i) + k), g, c0);
    }
    _mm256_store_pd(acc, c0);
    for (std::size_t t = 0; t < 4; ++t) dw.row_data(k + t)[j] = acc[t];
  }
  for (; k < kk; ++k) {
    double c = accumulate ? dw.row_data(k)[j] : 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      c = std::fma(a.row_data(i)[k], dy.row_data(i)[j], c);
    }
    dw.row_data(k)[j] = c;
  }
}

}  // namespace

void gemm_grad_weights_avx2(ConstMatrixView a, ConstMatrixView dy,
                            MatrixView dw, bool accumulate) {
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t n = dy.cols();
  // 6x8 register tile: six dw rows x eight columns, twelve ymm accumulators
  // (plus gl/gh and one broadcast register -- 15 of 16 ymm).  Per reduction
  // step i the kernel loads a(i, k..k+5) -- contiguous within a's row -- and
  // two ymm of dy(i, j..j+7); each dy load feeds six accumulator rows and
  // each broadcast feeds eight columns, which is what the one-row-at-a-time
  // sweep lacked (it re-streamed all of dy once per dw row).  Twelve chains
  // also space each accumulator's reuse past the FMA latency, like the
  // forward kernel's 6x8 tile.  Per element the i loop still ascends in a
  // single chain, the same order as the scalar kernel up to FMA rounding.
  // Columns past the last multiple of four go down dW rows instead
  // (grad_weights_narrow_column).
  const std::size_t n4 = n - n % 4;
  std::size_t k = 0;
  for (; k + 6 <= kk; k += 6) {
    double* __restrict out0 = dw.row_data(k);
    double* __restrict out1 = dw.row_data(k + 1);
    double* __restrict out2 = dw.row_data(k + 2);
    double* __restrict out3 = dw.row_data(k + 3);
    double* __restrict out4 = dw.row_data(k + 4);
    double* __restrict out5 = dw.row_data(k + 5);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256d a0l, a0h, a1l, a1h, a2l, a2h, a3l, a3h, a4l, a4h, a5l, a5h;
      if (accumulate) {
        a0l = _mm256_loadu_pd(out0 + j);
        a0h = _mm256_loadu_pd(out0 + j + 4);
        a1l = _mm256_loadu_pd(out1 + j);
        a1h = _mm256_loadu_pd(out1 + j + 4);
        a2l = _mm256_loadu_pd(out2 + j);
        a2h = _mm256_loadu_pd(out2 + j + 4);
        a3l = _mm256_loadu_pd(out3 + j);
        a3h = _mm256_loadu_pd(out3 + j + 4);
        a4l = _mm256_loadu_pd(out4 + j);
        a4h = _mm256_loadu_pd(out4 + j + 4);
        a5l = _mm256_loadu_pd(out5 + j);
        a5h = _mm256_loadu_pd(out5 + j + 4);
      } else {
        a0l = a0h = a1l = a1h = a2l = a2h = _mm256_setzero_pd();
        a3l = a3h = a4l = a4h = a5l = a5h = _mm256_setzero_pd();
      }
      for (std::size_t i = 0; i < m; ++i) {
        const double* __restrict arow = a.row_data(i) + k;
        const double* __restrict g = dy.row_data(i) + j;
        const __m256d gl = _mm256_loadu_pd(g);
        const __m256d gh = _mm256_loadu_pd(g + 4);
        __m256d av = _mm256_set1_pd(arow[0]);
        a0l = _mm256_fmadd_pd(av, gl, a0l);
        a0h = _mm256_fmadd_pd(av, gh, a0h);
        av = _mm256_set1_pd(arow[1]);
        a1l = _mm256_fmadd_pd(av, gl, a1l);
        a1h = _mm256_fmadd_pd(av, gh, a1h);
        av = _mm256_set1_pd(arow[2]);
        a2l = _mm256_fmadd_pd(av, gl, a2l);
        a2h = _mm256_fmadd_pd(av, gh, a2h);
        av = _mm256_set1_pd(arow[3]);
        a3l = _mm256_fmadd_pd(av, gl, a3l);
        a3h = _mm256_fmadd_pd(av, gh, a3h);
        av = _mm256_set1_pd(arow[4]);
        a4l = _mm256_fmadd_pd(av, gl, a4l);
        a4h = _mm256_fmadd_pd(av, gh, a4h);
        av = _mm256_set1_pd(arow[5]);
        a5l = _mm256_fmadd_pd(av, gl, a5l);
        a5h = _mm256_fmadd_pd(av, gh, a5h);
      }
      _mm256_storeu_pd(out0 + j, a0l);
      _mm256_storeu_pd(out0 + j + 4, a0h);
      _mm256_storeu_pd(out1 + j, a1l);
      _mm256_storeu_pd(out1 + j + 4, a1h);
      _mm256_storeu_pd(out2 + j, a2l);
      _mm256_storeu_pd(out2 + j + 4, a2h);
      _mm256_storeu_pd(out3 + j, a3l);
      _mm256_storeu_pd(out3 + j + 4, a3h);
      _mm256_storeu_pd(out4 + j, a4l);
      _mm256_storeu_pd(out4 + j + 4, a4h);
      _mm256_storeu_pd(out5 + j, a5l);
      _mm256_storeu_pd(out5 + j + 4, a5h);
    }
    grad_weights_row_tail(a, dy, out0, k, j, n4, accumulate);
    grad_weights_row_tail(a, dy, out1, k + 1, j, n4, accumulate);
    grad_weights_row_tail(a, dy, out2, k + 2, j, n4, accumulate);
    grad_weights_row_tail(a, dy, out3, k + 3, j, n4, accumulate);
    grad_weights_row_tail(a, dy, out4, k + 4, j, n4, accumulate);
    grad_weights_row_tail(a, dy, out5, k + 5, j, n4, accumulate);
  }
  for (; k < kk; ++k) {
    grad_weights_row_tail(a, dy, dw.row_data(k), k, 0, n4, accumulate);
  }
  for (std::size_t j = n4; j < n; ++j) {
    grad_weights_narrow_column(a, dy, dw, j, accumulate);
  }
}

#else  // !(__AVX2__ && __FMA__)

bool gemm_avx2_compiled() { return false; }

void gemm_packed_avx2(ConstMatrixView a, const PackedB& b, MatrixView out,
                      const GemmEpilogue& epi) {
  // Unreachable through the dispatcher (gemm_avx2_available() is false when
  // the kernel was not compiled); keep behaviour defined regardless.
  gemm_packed_scalar(a, b, out, epi);
}

void gemm_grad_weights_avx2(ConstMatrixView a, ConstMatrixView dy,
                            MatrixView dw, bool accumulate) {
  gemm_grad_weights_scalar(a, dy, dw, accumulate);
}

#endif

}  // namespace fsda::la::detail
