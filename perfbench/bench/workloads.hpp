// The three workloads (README.md says why each exists):
//
//   serve-steady        socket serving, no drift
//   drift-recurring     synchronous DriftLoop, warm re-adaptation
//   drift-novel-loaded  background DriftLoop, cold re-adaptation, while
//                       the daemon serves socket load on the same pipeline
//
// Each sets up from the workload seed several times (set-up time is the
// median), measures for the requested seconds with the flight recorder off
// (end-to-end metrics) or on (per-layer metrics, then the Perfetto trace),
// and checks every output it receives.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  /// Directory (inside the checkout) for the socket and the trace files.
  std::string out_dir = ".";
};

/// True when `name` is a known workload.
[[nodiscard]] bool known_workload(const std::string& name);

/// Runs one workload, filling `report`.
void run_workload(const RunArgs& args, Report& report);

}  // namespace perfbench
