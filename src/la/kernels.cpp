#include "la/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "la/gemm.hpp"

namespace fsda::la {

namespace {

// k-blocking keeps the active panel of B resident in cache while four
// output rows are accumulated.
constexpr std::size_t kKBlock = 64;

void check_matmul_shapes(ConstMatrixView a, ConstMatrixView b, MatrixView out,
                         std::size_t m, std::size_t n, const char* op) {
  FSDA_CHECK_MSG(out.rows() == m && out.cols() == n,
                 op << ": destination is " << out.rows() << "x" << out.cols()
                    << ", expected " << m << "x" << n);
  FSDA_CHECK_MSG(!views_overlap(out, a) && !views_overlap(out, b),
                 op << ": destination aliases an operand");
}

// Accumulates out[r0:r1) += a[r0:r1) * b, assuming out rows are
// pre-initialised.  Four output rows per sweep so each row of B loaded from
// memory feeds four independent accumulator streams (4x less B bandwidth
// than the naive i-k-j loop), with k-blocking to keep B panels cached.
void matmul_panel(ConstMatrixView a, ConstMatrixView b, MatrixView out,
                  std::size_t r0, std::size_t r1) {
  const std::size_t kk = a.cols();
  const std::size_t n = b.cols();
  std::size_t i = r0;
  // __restrict on the row pointers: the aliasing contract (checked in
  // check_matmul_shapes) guarantees out is disjoint from a and b, which the
  // compiler cannot see through the views -- without it the inner loop
  // cannot vectorise.
  for (; i + 4 <= r1; i += 4) {
    double* __restrict o0 = out.row_data(i);
    double* __restrict o1 = out.row_data(i + 1);
    double* __restrict o2 = out.row_data(i + 2);
    double* __restrict o3 = out.row_data(i + 3);
    const double* a0 = a.row_data(i);
    const double* a1 = a.row_data(i + 1);
    const double* a2 = a.row_data(i + 2);
    const double* a3 = a.row_data(i + 3);
    for (std::size_t k0 = 0; k0 < kk; k0 += kKBlock) {
      const std::size_t k1 = std::min(kk, k0 + kKBlock);
      for (std::size_t k = k0; k < k1; ++k) {
        const double* __restrict brow = b.row_data(k);
        const double c0 = a0[k];
        const double c1 = a1[k];
        const double c2 = a2[k];
        const double c3 = a3[k];
        for (std::size_t j = 0; j < n; ++j) {
          const double bv = brow[j];
          o0[j] += c0 * bv;
          o1[j] += c1 * bv;
          o2[j] += c2 * bv;
          o3[j] += c3 * bv;
        }
      }
    }
  }
  for (; i < r1; ++i) {
    double* __restrict o = out.row_data(i);
    const double* arow = a.row_data(i);
    for (std::size_t k = 0; k < kk; ++k) {
      const double c = arow[k];
      const double* __restrict brow = b.row_data(k);
      for (std::size_t j = 0; j < n; ++j) o[j] += c * brow[j];
    }
  }
}

void matmul_dispatch(ConstMatrixView a, ConstMatrixView b, MatrixView out,
                     bool accumulate) {
  if (!accumulate) {
    for (std::size_t r = 0; r < out.rows(); ++r) {
      std::fill_n(out.row_data(r), out.cols(), 0.0);
    }
  }
  const std::size_t flops = a.rows() * a.cols() * b.cols();
  if (flops >= kParallelFlopThreshold && a.rows() >= 8) {
    common::parallel_for_chunked(
        a.rows(), [&](std::size_t begin, std::size_t end) {
          matmul_panel(a, b, out, begin, end);
        });
  } else {
    matmul_panel(a, b, out, 0, a.rows());
  }
}

// Per-thread scratch for the transpose-then-multiply strategy of the
// transposed product kernels.  thread_local so nested/parallel callers do
// not race; the buffer's capacity is retained across calls, so steady-state
// training steps do not allocate.
Matrix& transpose_scratch() {
  thread_local Matrix scratch;
  return scratch;
}

}  // namespace

void transpose_into(ConstMatrixView a, MatrixView out) {
  FSDA_CHECK_MSG(out.rows() == a.cols() && out.cols() == a.rows(),
                 "transpose_into: destination is " << out.rows() << "x"
                                                   << out.cols());
  FSDA_CHECK_MSG(!views_overlap(out, a),
                 "transpose_into: destination aliases the source");
  // 32x32 tiles keep both the read and write streams within cache lines.
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < a.rows(); r0 += kTile) {
    const std::size_t r1 = std::min(a.rows(), r0 + kTile);
    for (std::size_t c0 = 0; c0 < a.cols(); c0 += kTile) {
      const std::size_t c1 = std::min(a.cols(), c0 + kTile);
      for (std::size_t r = r0; r < r1; ++r) {
        const double* in = a.row_data(r);
        for (std::size_t c = c0; c < c1; ++c) {
          out.row_data(c)[r] = in[c];
        }
      }
    }
  }
}

void matmul_into(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  FSDA_CHECK_MSG(a.cols() == b.rows(), "matmul_into: " << a.rows() << "x"
                                                       << a.cols() << " * "
                                                       << b.rows() << "x"
                                                       << b.cols());
  check_matmul_shapes(a, b, out, a.rows(), b.cols(), "matmul_into");
  matmul_dispatch(a, b, out, /*accumulate=*/false);
}

void transposed_matmul_into(ConstMatrixView a, ConstMatrixView b,
                            MatrixView out, bool accumulate) {
  FSDA_CHECK_MSG(a.rows() == b.rows(), "transposed_matmul_into row mismatch");
  check_matmul_shapes(a, b, out, a.cols(), b.cols(),
                      "transposed_matmul_into");
  // Materialise a^T into per-thread scratch: the copy is O(m*k) against the
  // O(m*k*n) product, and buys the blocked row-major kernel for the product.
  Matrix& scratch = transpose_scratch();
  scratch.resize(a.cols(), a.rows());
  transpose_into(a, scratch);
  matmul_dispatch(scratch, b, out, accumulate);
}

void matmul_transposed_into(ConstMatrixView a, ConstMatrixView b,
                            MatrixView out) {
  FSDA_CHECK_MSG(a.cols() == b.cols(), "matmul_transposed_into col mismatch");
  check_matmul_shapes(a, b, out, a.rows(), b.rows(), "matmul_transposed_into");
  Matrix& scratch = transpose_scratch();
  scratch.resize(b.cols(), b.rows());
  transpose_into(b, scratch);
  matmul_dispatch(a, scratch, out, /*accumulate=*/false);
}

void add_into(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  zip_into(a, b, out, [](double x, double y) { return x + y; });
}

void sub_into(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  zip_into(a, b, out, [](double x, double y) { return x - y; });
}

void hadamard_into(ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  zip_into(a, b, out, [](double x, double y) { return x * y; });
}

void scale_into(ConstMatrixView a, double scalar, MatrixView out) {
  apply_into(a, out, [scalar](double x) { return x * scalar; });
}

void copy_into(ConstMatrixView a, MatrixView out) {
  detail::check_same_shape(a, out, "copy_into");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::copy_n(a.row_data(r), a.cols(), out.row_data(r));
  }
}

void fill(MatrixView out, double value) {
  for (std::size_t r = 0; r < out.rows(); ++r) {
    std::fill_n(out.row_data(r), out.cols(), value);
  }
}

void add_row_broadcast_into(ConstMatrixView a, ConstMatrixView row,
                            MatrixView out) {
  FSDA_CHECK_MSG(row.rows() == 1 && row.cols() == a.cols(),
                 "add_row_broadcast_into expects 1x" << a.cols() << ", got "
                                                     << row.rows() << "x"
                                                     << row.cols());
  detail::check_same_shape(a, out, "add_row_broadcast_into");
  const double* bias = row.row_data(0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* in = a.row_data(r);
    double* o = out.row_data(r);
    for (std::size_t c = 0; c < a.cols(); ++c) o[c] = in[c] + bias[c];
  }
}

void cholesky_into(ConstMatrixView a, MatrixView out, double min_pivot) {
  FSDA_CHECK_MSG(a.rows() == a.cols(),
                 "cholesky_into requires a square matrix, got "
                     << a.rows() << "x" << a.cols());
  detail::check_same_shape(a, out, "cholesky_into");
  const bool in_place = a.raw() == out.raw() && a.row_stride() == out.row_stride();
  FSDA_CHECK_MSG(in_place || !views_overlap(out, a),
                 "cholesky_into: destination partially aliases the input");
  if (!in_place) copy_into(a, out);
  const std::size_t n = out.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double* __restrict ri = out.row_data(i);
    for (std::size_t j = 0; j < i; ++j) {
      const double* __restrict rj = out.row_data(j);
      double acc = ri[j];
      for (std::size_t k = 0; k < j; ++k) acc -= ri[k] * rj[k];
      ri[j] = acc / rj[j];
    }
    double acc = ri[i];
    for (std::size_t k = 0; k < i; ++k) acc -= ri[k] * ri[k];
    if (acc <= min_pivot) {
      throw common::NumericError("cholesky_into: matrix not positive definite");
    }
    ri[i] = std::sqrt(acc);
    for (std::size_t j = i + 1; j < n; ++j) ri[j] = 0.0;
  }
}

void solve_triangular_into(ConstMatrixView tri, MatrixView b, bool transpose) {
  const std::size_t n = tri.rows();
  FSDA_CHECK_MSG(tri.cols() == n,
                 "solve_triangular_into requires a square factor");
  FSDA_CHECK_MSG(b.rows() == n, "solve_triangular_into: rhs has "
                                    << b.rows() << " rows, factor is " << n);
  const std::size_t m = b.cols();
  if (!transpose) {
    // Forward substitution with the lower factor.
    for (std::size_t i = 0; i < n; ++i) {
      const double* __restrict li = tri.row_data(i);
      double* __restrict bi = b.row_data(i);
      for (std::size_t k = 0; k < i; ++k) {
        const double factor = li[k];
        const double* __restrict bk = b.row_data(k);
        for (std::size_t c = 0; c < m; ++c) bi[c] -= factor * bk[c];
      }
      const double inv = 1.0 / li[i];
      for (std::size_t c = 0; c < m; ++c) bi[c] *= inv;
    }
  } else {
    // Backward substitution with the transposed factor: L^T x = b reads
    // column i of L as row i of L^T, i.e. tri(k, i) for k > i.
    for (std::size_t i = n; i-- > 0;) {
      double* __restrict bi = b.row_data(i);
      for (std::size_t k = i + 1; k < n; ++k) {
        const double factor = tri(k, i);
        const double* __restrict bk = b.row_data(k);
        for (std::size_t c = 0; c < m; ++c) bi[c] -= factor * bk[c];
      }
      const double inv = 1.0 / tri(i, i);
      for (std::size_t c = 0; c < m; ++c) bi[c] *= inv;
    }
  }
}

void relu_into(ConstMatrixView a, MatrixView out) {
  apply_into(a, out, [](double x) { return x > 0.0 ? x : 0.0; });
}

void relu_backward_into(ConstMatrixView grad_out, ConstMatrixView input,
                        MatrixView grad_in) {
  zip_into(grad_out, input, grad_in,
           [](double g, double x) { return x > 0.0 ? g : 0.0; });
}

void leaky_relu_into(ConstMatrixView a, MatrixView out, double alpha) {
  apply_into(a, out, [alpha](double x) { return x > 0.0 ? x : alpha * x; });
}

void leaky_relu_backward_into(ConstMatrixView grad_out, ConstMatrixView input,
                              MatrixView grad_in, double alpha) {
  zip_into(grad_out, input, grad_in,
           [alpha](double g, double x) { return x > 0.0 ? g : alpha * g; });
}

void sum_rows_into(ConstMatrixView a, MatrixView out, bool accumulate) {
  FSDA_CHECK_MSG(out.rows() == 1 && out.cols() == a.cols(),
                 "sum_rows_into expects a 1x" << a.cols() << " destination");
  double* acc = out.row_data(0);
  if (!accumulate) std::fill_n(acc, a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* in = a.row_data(r);
    for (std::size_t c = 0; c < a.cols(); ++c) acc[c] += in[c];
  }
}

}  // namespace fsda::la
