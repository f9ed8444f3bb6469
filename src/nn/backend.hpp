// fsda::nn -- pack telemetry for the packed training path.
//
// Linear runs its forward, dX and dW GEMMs on the packed engine
// (la/gemm.hpp); Workspace::packed re-lays out weight panels once per
// parameter version and reports the time spent here, so a fit can export
// how much of its wall clock went to packing.
#pragma once

#include <cstdint>

namespace fsda::nn {

/// Cumulative process-wide seconds spent re-packing weight panels for the
/// packed training path (Workspace::packed cache misses).  Feeds the
/// training.gemm_pack_seconds gauge; callers diff it across a fit.
[[nodiscard]] double gemm_pack_seconds();

namespace detail {
/// Accumulates pack wall-clock (relaxed atomic; called from Workspace).
void add_pack_nanos(std::uint64_t nanos);
}  // namespace detail

}  // namespace fsda::nn
