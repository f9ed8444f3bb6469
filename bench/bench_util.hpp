// Shared plumbing for the table-reproduction benches: env-var knobs, method
// and model filtering, table assembly matching the paper's layout, and CSV
// export under the (gitignored) bench output directory.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "common/env.hpp"
#include "data/dataset.hpp"
#include "eval/experiment.hpp"
#include "eval/table.hpp"
#include "models/factory.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fsda::bench {

/// Shared configuration resolved from FSDA_* environment variables.
struct BenchConfig {
  bool full = false;                        ///< FSDA_FULL
  std::size_t repeats = 2;                  ///< FSDA_REPEATS
  std::vector<std::size_t> shots = {1, 5, 10};  ///< FSDA_SHOTS ("1,5,10")
  std::vector<std::string> models;          ///< FSDA_MODELS filter (names)
  std::vector<std::string> methods;         ///< FSDA_METHODS filter
  std::uint64_t seed = 20260708;            ///< FSDA_SEED
};

inline std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string current;
  for (char c : csv) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

inline BenchConfig load_bench_config() {
  BenchConfig config;
  config.full = common::full_scale_requested();
  config.repeats = static_cast<std::size_t>(
      common::env_int("FSDA_REPEATS", config.full ? 20 : 2));
  config.seed = static_cast<std::uint64_t>(
      common::env_int("FSDA_SEED", 20260708));
  const std::string shots = common::env_string("FSDA_SHOTS", "");
  if (!shots.empty()) {
    config.shots.clear();
    for (const auto& token : split_list(shots)) {
      config.shots.push_back(static_cast<std::size_t>(std::stoul(token)));
    }
  }
  config.models = split_list(common::env_string("FSDA_MODELS", ""));
  config.methods = split_list(common::env_string("FSDA_METHODS", ""));
  return config;
}

inline bool selected(const std::vector<std::string>& filter,
                     const std::string& name) {
  if (filter.empty()) return true;
  for (const auto& f : filter) {
    if (f == name) return true;
  }
  return false;
}

/// Resolves a bench output filename under FSDA_OUT_DIR (default
/// "bench/out", relative to the working directory), creating the directory
/// on first use.  Falls back to the bare filename when the directory cannot
/// be created (e.g. read-only checkout).
inline std::string out_path(const std::string& filename) {
  const std::string dir = common::env_string("FSDA_OUT_DIR", "bench/out");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return filename;
  return (std::filesystem::path(dir) / filename).string();
}

/// Writes a table's CSV under the bench output directory (best effort).
inline void export_csv(const eval::TextTable& table,
                       const std::string& filename) {
  const std::string path = out_path(filename);
  std::ofstream out(path);
  if (out) {
    out << table.to_csv();
    std::printf("CSV written to %s\n", path.c_str());
  }
}

/// Opt-in bench telemetry, driven by environment variables:
///
///   FSDA_METRICS_OUT=<file>  append one JSON metrics snapshot at exit
///                            (resolved under FSDA_OUT_DIR)
///   FSDA_TRACE=1             enable the flight recorder; the span tree
///                            built from one journal snapshot is printed
///                            at exit (and is the snapshot's "trace")
///
/// Declare one instance at the top of a bench main(); the destructor
/// flushes.  Telemetry stays fully disabled when neither variable is set,
/// so default bench timings are unaffected.  Benches that drain the
/// recorder themselves (bench_drift_loop, bench_readapt, bench_obs,
/// bench_serving write their full journal to *_trace.json) leave only
/// their undrained events to the exit tree.
class BenchTelemetry {
 public:
  BenchTelemetry() {
    const std::string metrics = common::env_string("FSDA_METRICS_OUT", "");
    if (!metrics.empty()) {
      metrics_path_ = out_path(metrics);
      obs::set_telemetry_enabled(true);
    }
    if (common::env_int("FSDA_TRACE", 0) != 0) {
      trace_ = true;
      obs::set_telemetry_enabled(true);
      obs::FlightRecorder::global().set_enabled(true);
    }
  }

  BenchTelemetry(const BenchTelemetry&) = delete;
  BenchTelemetry& operator=(const BenchTelemetry&) = delete;

  ~BenchTelemetry() {
    obs::ExtraFields extra;
    obs::SpanSnapshot tree;
    if (trace_) {
      tree = obs::span_tree(obs::FlightRecorder::global().snapshot());
      extra.emplace_back("trace", obs::to_json(tree));
    }
    if (!metrics_path_.empty()) {
      obs::SnapshotSink sink(metrics_path_);
      if (sink.flush(extra)) {
        std::printf("metrics snapshot written to %s\n", metrics_path_.c_str());
      }
    }
    if (trace_) std::fprintf(stderr, "%s", obs::to_string(tree).c_str());
  }

 private:
  std::string metrics_path_;
  bool trace_ = false;
};

/// Runs the full (methods x models x shots) grid of Table I on one dataset
/// and prints the paper-shaped table.
void run_table1(const data::DomainSplit& split, const BenchConfig& config,
                const std::string& csv_path);

}  // namespace fsda::bench
