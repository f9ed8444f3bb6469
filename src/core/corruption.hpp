// fsda::core -- marginal-preserving feature corruption.
//
// Feature separation never recovers the full variant set (the paper finds
// 75 of 442 features at best), so at inference a minority of the "invariant"
// inputs have silently drifted.  To make the reconstruction path robust to
// that, the GAN (and the classifier's reconstructed training views) train
// under column-wise permutation corruption: each corrupted cell is replaced
// by the same feature's value from another random row, which destroys the
// cell's signal while exactly preserving the feature's marginal -- the same
// corruption model as undetected stealth drift.
// The fault-injection modes below (NaN cells, stuck sensors, dropped
// metrics) model the telemetry failures the guardrails in core/health.hpp
// defend against; they exist for tests and chaos-style evaluation runs.
#pragma once

#include <span>

#include "common/rng.hpp"
#include "la/matrix.hpp"
#include "la/view.hpp"

namespace fsda::core {

/// Returns a copy of x where each cell is, with probability p, replaced by
/// the value of the same column in a uniformly random row.
la::Matrix permute_corrupt(const la::Matrix& x, double p, common::Rng& rng);

/// Destination-passing form: writes the corrupted copy into `out` (resized
/// in place; a reused buffer makes the corruption allocation-free).
void permute_corrupt_into(const la::Matrix& x, double p, common::Rng& rng,
                          la::Matrix& out);

/// View form, the body of the one above: `out` has x's shape and does not
/// overlap it; either may be a column block of a wider matrix.  Draws the
/// same stream values as the Matrix form.
void permute_corrupt_into(la::ConstMatrixView x, double p, common::Rng& rng,
                          la::MatrixView out);

/// Fault injection: each cell is, with probability p, replaced by NaN --
/// the collector-dropped-a-sample failure mode.
la::Matrix nan_corrupt(const la::Matrix& x, double p, common::Rng& rng);
void nan_corrupt_into(const la::Matrix& x, double p, common::Rng& rng,
                      la::Matrix& out);

/// Fault injection: each listed column is frozen at the value it had in one
/// uniformly random row -- a sensor stuck at its last reading.  The stuck
/// value is in-distribution, so this corruption is invisible to finite
/// scans and must be survived by the model itself.
la::Matrix stuck_sensor_corrupt(const la::Matrix& x,
                                std::span<const std::size_t> columns,
                                common::Rng& rng);
void stuck_sensor_corrupt_into(const la::Matrix& x,
                               std::span<const std::size_t> columns,
                               common::Rng& rng, la::Matrix& out);

/// Fault injection: each listed column is replaced wholesale by `fill`
/// (NaN models a dropped metric; 0.0 models a zero-filled export).
la::Matrix drop_metric_corrupt(const la::Matrix& x,
                               std::span<const std::size_t> columns,
                               double fill);
void drop_metric_corrupt_into(const la::Matrix& x,
                              std::span<const std::size_t> columns,
                              double fill, la::Matrix& out);

}  // namespace fsda::core
