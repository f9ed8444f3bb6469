// Per-layer rungs: the benchmark times calls into each layer's public API
// on the fixture's trained pipeline, from the bottom of the serving stack
// up (gemm -> session -> pipeline -> daemon -> socket), plus the drift
// loop's per-batch stages and a replay of the F-node search.  Each rung
// runs on an otherwise idle process, so the difference between adjacent
// rungs is what the layer in between costs.  Nothing here is instrumented
// inside the program; all timing is steady_clock around public calls.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "fixture.hpp"
#include "obs/journal.hpp"
#include "report.hpp"
#include "serve/daemon.hpp"

namespace perfbench {

/// gemm, session, pipeline, daemon and socket rungs at batch 1 (and 64
/// where the layer batches), the wire codec, and the rung deltas.  The
/// daemon must be started and `socket_path` served by a UdsServer over it.
void serving_ladder(Fixture& fx, fsda::serve::ServeDaemon& daemon,
                    const std::string& socket_path, Report& report);

/// DriftLoop::serve and its stages (predict_proba_into, detector observe,
/// buffer ingest) on 64-row batches of the trained regime.
void loop_ladder(Fixture& fx, Report& report);

/// Re-runs find_intervention_targets on the first few labelled snapshots
/// (raw rows), timing the search and counting its CI tests.
void fnode_replay(Fixture& fx, const std::vector<fsda::data::Dataset>& snapshots,
                  Report& report);

/// One cold re-adaptation through the generation API on `shots`:
/// build_candidate_generation then validate_generation, timed as
/// readapt.build_ms / readapt.validate_ms (nothing is promoted).
void readapt_rung(Fixture& fx, const fsda::data::Dataset& shots, Report& report);

/// Durations (ms) of every closed `name` scope in `journal`, in order.
[[nodiscard]] std::vector<double> scope_ms(const fsda::obs::Journal& journal,
                                           const std::string& name);

}  // namespace perfbench
