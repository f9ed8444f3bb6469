#include "core/corruption.hpp"

#include <limits>

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"

namespace fsda::core {

void permute_corrupt_into(la::ConstMatrixView x, double p, common::Rng& rng,
                          la::MatrixView out) {
  FSDA_CHECK_MSG(p >= 0.0 && p < 1.0, "corruption probability out of [0,1)");
  FSDA_CHECK_MSG(!la::views_overlap(x, out),
                 "permute_corrupt_into: source and destination overlap");
  la::copy_into(x, out);
  if (p == 0.0 || x.rows() < 2) return;
  // The rejection bound is hoisted out of the loop and the stream is drawn
  // from a local copy (its state stays in registers across the stores);
  // the draws are exactly those of rng.uniform_index(x.rows()) per hit.
  const std::uint64_t rows = x.rows();
  const std::uint64_t limit = common::Rng::index_limit(rows);
  common::Rng local = rng;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double* o = out.row_data(r);
    for (std::size_t c = 0; c < x.cols(); ++c) {
      if (local.bernoulli(p)) {
        o[c] = x.row_data(local.uniform_index(rows, limit))[c];
      }
    }
  }
  rng = local;
}

void permute_corrupt_into(const la::Matrix& x, double p, common::Rng& rng,
                          la::Matrix& out) {
  out.resize(x.rows(), x.cols());
  permute_corrupt_into(la::ConstMatrixView(x), p, rng, la::MatrixView(out));
}

la::Matrix permute_corrupt(const la::Matrix& x, double p, common::Rng& rng) {
  la::Matrix out;
  permute_corrupt_into(x, p, rng, out);
  return out;
}

void nan_corrupt_into(const la::Matrix& x, double p, common::Rng& rng,
                      la::Matrix& out) {
  FSDA_CHECK_MSG(p >= 0.0 && p <= 1.0, "corruption probability out of [0,1]");
  out.resize(x.rows(), x.cols());
  la::copy_into(x, out);
  if (p == 0.0) return;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double& v : out.data()) {
    if (rng.bernoulli(p)) v = nan;
  }
}

la::Matrix nan_corrupt(const la::Matrix& x, double p, common::Rng& rng) {
  la::Matrix out;
  nan_corrupt_into(x, p, rng, out);
  return out;
}

void stuck_sensor_corrupt_into(const la::Matrix& x,
                               std::span<const std::size_t> columns,
                               common::Rng& rng, la::Matrix& out) {
  out.resize(x.rows(), x.cols());
  la::copy_into(x, out);
  for (std::size_t c : columns) {
    FSDA_CHECK_MSG(c < x.cols(), "stuck column out of range");
    const double stuck = x(rng.uniform_index(x.rows()), c);
    for (std::size_t r = 0; r < x.rows(); ++r) out(r, c) = stuck;
  }
}

la::Matrix stuck_sensor_corrupt(const la::Matrix& x,
                                std::span<const std::size_t> columns,
                                common::Rng& rng) {
  la::Matrix out;
  stuck_sensor_corrupt_into(x, columns, rng, out);
  return out;
}

void drop_metric_corrupt_into(const la::Matrix& x,
                              std::span<const std::size_t> columns,
                              double fill, la::Matrix& out) {
  out.resize(x.rows(), x.cols());
  la::copy_into(x, out);
  for (std::size_t c : columns) {
    FSDA_CHECK_MSG(c < x.cols(), "dropped column out of range");
    for (std::size_t r = 0; r < x.rows(); ++r) out(r, c) = fill;
  }
}

la::Matrix drop_metric_corrupt(const la::Matrix& x,
                               std::span<const std::size_t> columns,
                               double fill) {
  la::Matrix out;
  drop_metric_corrupt_into(x, columns, fill, out);
  return out;
}

}  // namespace fsda::core
