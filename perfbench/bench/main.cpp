// fsda_perfbench -- the repository benchmark's measuring program.  Normally
// launched by perfbench/run.py, which builds it and filters its output to
// the metrics BENCHMARK.json declares:
//
//   fsda_perfbench --workload serve-steady --seed 1 --seconds 10 --trace 0
//                  [--commit <id>] [--out-dir <dir>]
//
// Prints one line per metric ("e2e"/"layer" name value unit), the
// environment stamp, and a final JSON line with every metric.  Exits 1 when
// a correctness check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (!perfbench::known_workload(args.workload) || args.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: fsda_perfbench --workload "
                 "serve-steady|drift-recurring|drift-novel-loaded --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  perfbench::Report report;
  try {
    perfbench::run_workload(args, report);
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
