// fsda command-line driver: run the paper's pipeline on CSV telemetry.
//
// Usage:
//   fsda_cli demo [5gc|5gipc]
//       Generate the synthetic instance, run SrcOnly / FS / FS+GAN, print F1.
//   fsda_cli export <dir> [5gc|5gipc]
//       Write source_train.csv / target_pool.csv / target_test.csv there.
//   fsda_cli run <source.csv> <shots.csv> <test.csv>
//         [--model tnet|mlp|rf|xgb] [--method fs|fs+gan] [--label label]
//         [--out predictions.csv] [--metrics-out snapshot.json] [--trace]
//       Fit the pipeline on your own data and score/emit predictions.
//       --metrics-out writes one JSON metrics snapshot (stage timings,
//       drift gauges, health report) after scoring; --trace turns on the
//       flight recorder and prints the span timing tree built from its
//       journal to stderr (and into the snapshot's "trace" field).
//   fsda_cli serve-bench [5gc|5gipc] [--iters N] [--batch N] [--reps N]
//       Train an FS+GAN pipeline on the synthetic instance and benchmark
//       its serving path (the generation's InferenceSession behind the
//       guarded scoring body): single-sample HDR latency quantiles
//       (p50/p90/p99/p999) and batched samples/sec.  Honors the bench
//       telemetry env knobs (FSDA_METRICS_OUT, FSDA_TRACE).
//   fsda_cli serve [5gc|5gipc] [--socket <path>] [--workers N] ...
//       Train an FS+GAN pipeline and run the concurrent serving daemon on
//       a unix socket: sharded request queue, adaptive micro-batching,
//       admission control (see DESIGN.md §15 for the wire format).  Stops
//       on Ctrl-C or a client shutdown frame.
//   fsda_cli client <socket> [ping|shutdown|load] [--requests N] [--rows N]
//       Talk to a running daemon: liveness ping, shutdown request, or a
//       closed-loop load run printing latency quantiles and shed counts.
//   fsda_cli obs print <snapshot.json>
//   fsda_cli obs diff <a.json> <b.json>
//   fsda_cli obs perfetto <journal.jsonl> <trace.json>
//       Inspect artifacts the observability layer wrote: flatten a metrics
//       snapshot to `dotted.path value` lines, diff two snapshots (added /
//       removed / changed), or convert a flight-recorder JSONL journal to
//       a Chrome/Perfetto trace loadable at https://ui.perfetto.dev.
//
// CSVs carry one sample per row, numeric feature columns, and an integer
// label column (default name "label").
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "baselines/naive.hpp"
#include "baselines/ours.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "data/gen5gc.hpp"
#include "data/gen5gipc.hpp"
#include "data/io.hpp"
#include "eval/metrics.hpp"
#include "la/gemm.hpp"
#include "models/factory.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/journal.hpp"
#include "obs/perfetto_export.hpp"
#include "serve/daemon.hpp"
#include "serve/uds.hpp"
#include "serving_bench.hpp"

using namespace fsda;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fsda_cli demo [5gc|5gipc]\n"
               "  fsda_cli export <dir> [5gc|5gipc]\n"
               "  fsda_cli run <source.csv> <shots.csv> <test.csv>\n"
               "           [--model tnet|mlp|rf|xgb] [--method fs|fs+gan]\n"
               "           [--label <column>] [--out <predictions.csv>]\n"
               "           [--metrics-out <snapshot.json>] [--trace]\n"
               "  fsda_cli serve-bench [5gc|5gipc] [--iters N] [--batch N]\n"
               "           [--reps N]\n"
               "  fsda_cli serve [5gc|5gipc] [--socket <path>] [--workers N]\n"
               "           [--max-batch N] [--queue-depth N] [--slo-ms X]\n"
               "           [--burn-rate X] [--trace-out <journal.jsonl>]\n"
               "  fsda_cli client <socket> [ping|shutdown|load]\n"
               "           [--requests N] [--rows N] [5gc|5gipc]\n"
               "  fsda_cli obs print <snapshot.json>\n"
               "  fsda_cli obs diff <a.json> <b.json>\n"
               "  fsda_cli obs perfetto <journal.jsonl> <trace.json>\n");
  return 2;
}

data::DomainSplit make_split(const std::string& which) {
  if (which == "5gipc") {
    return data::generate_5gipc(data::Gen5GIPCConfig::quick());
  }
  return data::generate_5gc(data::Gen5GCConfig::quick());
}

int cmd_demo(const std::string& which) {
  const data::DomainSplit split = make_split(which);
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 5, 7);
  const auto factory = models::make_classifier_factory("tnet");
  auto score = [&](baselines::DAMethod& method) {
    baselines::DAContext context{split.source_train, shots, factory, 42};
    method.fit(context);
    return 100.0 * eval::macro_f1(split.target_test.y,
                                  method.predict(split.target_test.x),
                                  split.target_test.num_classes);
  };
  baselines::SrcOnly src_only;
  baselines::FsMethod fs;
  baselines::FsReconMethod fs_gan;
  std::printf("%s demo (TNet, 5 shots/class):\n", split.name.c_str());
  std::printf("  SrcOnly %.1f -> FS %.1f -> FS+GAN %.1f macro-F1\n",
              score(src_only), score(fs), score(fs_gan));
  return 0;
}

int cmd_export(const std::string& dir, const std::string& which) {
  const data::DomainSplit split = make_split(which);
  data::write_dataset_csv(dir + "/source_train.csv", split.source_train);
  data::write_dataset_csv(dir + "/target_pool.csv", split.target_pool);
  data::write_dataset_csv(dir + "/target_test.csv", split.target_test);
  std::printf("wrote %s/{source_train,target_pool,target_test}.csv "
              "(%zu features, %zu classes)\n",
              dir.c_str(), split.source_train.num_features(),
              split.source_train.num_classes);
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string source_path = argv[2];
  const std::string shots_path = argv[3];
  const std::string test_path = argv[4];
  std::string model = "tnet", method = "fs+gan", label = "label", out;
  std::string metrics_out;
  bool trace = false;
  for (int i = 5; i < argc;) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      trace = true;
      ++i;
      continue;
    }
    if (i + 1 >= argc) return usage();
    if (flag == "--model") model = argv[i + 1];
    else if (flag == "--method") method = argv[i + 1];
    else if (flag == "--label") label = argv[i + 1];
    else if (flag == "--out") out = argv[i + 1];
    else if (flag == "--metrics-out") metrics_out = argv[i + 1];
    else return usage();
    i += 2;
  }
  if (!metrics_out.empty()) obs::set_telemetry_enabled(true);
  if (trace) {
    obs::set_telemetry_enabled(true);
    obs::FlightRecorder::global().set_enabled(true);
  }

  const data::Dataset source = data::read_dataset_csv(source_path, label);
  data::Dataset shots =
      data::read_dataset_csv(shots_path, label, source.num_classes);
  const data::Dataset test =
      data::read_dataset_csv(test_path, label, source.num_classes);
  std::printf("source %zu x %zu, shots %zu, test %zu, %zu classes\n",
              source.size(), source.num_features(), shots.size(),
              test.size(), source.num_classes);

  baselines::DAContext context{source, shots,
                               models::make_classifier_factory(model), 42};
  std::unique_ptr<baselines::DAMethod> da;
  if (method == "fs") da = std::make_unique<baselines::FsMethod>();
  else if (method == "fs+gan") da = std::make_unique<baselines::FsReconMethod>();
  else return usage();
  da->fit(context);

  const auto predicted = da->predict(test.x);
  std::printf("%s + %s: macro-F1 %.1f, accuracy %.1f%%\n", da->name().c_str(),
              model.c_str(),
              100.0 * eval::macro_f1(test.y, predicted, test.num_classes),
              100.0 * eval::accuracy(test.y, predicted));
  if (!out.empty()) {
    common::CsvTable table;
    table.header = {"row", "predicted", "actual"};
    for (std::size_t r = 0; r < predicted.size(); ++r) {
      table.rows.push_back({std::to_string(r), std::to_string(predicted[r]),
                            std::to_string(test.y[r])});
    }
    common::write_csv(out, table);
    std::printf("predictions written to %s\n", out.c_str());
  }
  // One journal snapshot feeds both the stderr tree and the "trace" field.
  obs::ExtraFields extra;
  obs::SpanSnapshot tree;
  if (trace) {
    tree = obs::span_tree(obs::FlightRecorder::global().snapshot());
    extra.emplace_back("trace", obs::to_json(tree));
  }
  if (!metrics_out.empty()) {
    auto* fs_gan = dynamic_cast<baselines::FsReconMethod*>(da.get());
    auto* fs_only = dynamic_cast<baselines::FsMethod*>(da.get());
    const core::HealthReport& health = fs_gan != nullptr
                                           ? fs_gan->pipeline().health()
                                           : fs_only->pipeline().health();
    extra.emplace_back("health", health.to_json());
    obs::SnapshotSink sink(metrics_out);
    if (sink.flush(extra)) {
      std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "error: could not write metrics snapshot to %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  if (trace) std::fprintf(stderr, "%s", obs::to_string(tree).c_str());
  return 0;
}

int cmd_serve_bench(int argc, char** argv) {
  bench::BenchTelemetry telemetry;
  std::string which = "5gc";
  std::size_t iters = 1000, batch = 256, reps = 10;
  for (int i = 2; i < argc;) {
    const std::string arg = argv[i];
    if (arg == "5gc" || arg == "5gipc") {
      which = arg;
      ++i;
      continue;
    }
    if (i + 1 >= argc) return usage();
    if (arg == "--iters") iters = std::stoul(argv[i + 1]);
    else if (arg == "--batch") batch = std::stoul(argv[i + 1]);
    else if (arg == "--reps") reps = std::stoul(argv[i + 1]);
    else return usage();
    i += 2;
  }

  const data::DomainSplit split = make_split(which);
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 5, 7);
  std::printf("serve-bench %s: %zu features, %zu classes, AVX2 %s\n",
              split.name.c_str(), split.source_train.num_features(),
              split.source_train.num_classes,
              la::gemm_avx2_available() ? "on" : "off");
  baselines::FsReconMethod method;
  baselines::DAContext context{split.source_train, shots,
                               models::make_classifier_factory("mlp"), 42};
  method.fit(context);
  core::FsGanPipeline& pipeline = method.pipeline();
  const bench::PathStats r = bench::measure_serving_path(
      pipeline, split.target_test.x, iters, batch, reps);
  std::printf("%10s %10s %10s %10s %14s\n", "p50 (ms)", "p90 (ms)",
              "p99 (ms)", "p999 (ms)", "samples/sec");
  std::printf("%10.4f %10.4f %10.4f %10.4f %14.0f\n", r.single.p50_ms,
              r.single.p90_ms, r.single.p99_ms, r.single.p999_ms,
              r.samples_per_sec);
  return 0;
}

// ---------------------------------------------------------------------------
// serve / client: the concurrent serving daemon and its socket client

std::atomic<bool> g_serve_interrupted{false};

extern "C" void serve_sigint_handler(int) {
  g_serve_interrupted.store(true, std::memory_order_relaxed);
}

int cmd_serve(int argc, char** argv) {
  std::string which = "5gc";
  std::string socket_path = "/tmp/fsda_serve.sock";
  std::string trace_out;
  serve::ServeOptions sopt;
  double slo_ms = 25.0;
  for (int i = 2; i < argc;) {
    const std::string arg = argv[i];
    if (arg == "5gc" || arg == "5gipc") {
      which = arg;
      ++i;
      continue;
    }
    if (i + 1 >= argc) return usage();
    if (arg == "--socket") socket_path = argv[i + 1];
    else if (arg == "--workers") sopt.workers = std::stoul(argv[i + 1]);
    else if (arg == "--max-batch")
      sopt.batch.max_batch_rows = std::stoul(argv[i + 1]);
    else if (arg == "--queue-depth")
      sopt.max_queue_depth = std::stoul(argv[i + 1]);
    else if (arg == "--slo-ms") slo_ms = std::stod(argv[i + 1]);
    else if (arg == "--burn-rate") sopt.shed_burn_rate = std::stod(argv[i + 1]);
    else if (arg == "--trace-out") trace_out = argv[i + 1];
    else return usage();
    i += 2;
  }

  const data::DomainSplit split = make_split(which);
  const data::Dataset shots = data::sample_few_shot(split.target_pool, 5, 7);
  std::printf("training FS+GAN pipeline on %s (%zu features)...\n",
              split.name.c_str(), split.source_train.num_features());
  // The method object must outlive the daemon: it owns the pipeline.
  static baselines::FsReconMethod method;
  baselines::DAContext context{split.source_train, shots,
                               models::make_classifier_factory("mlp"), 42};
  method.fit(context);
  core::FsGanPipeline& pipeline = method.pipeline();

  sopt.slo.latency_target_ms = slo_ms;
  sopt.slo.gauge_prefix = "serve.slo";
  if (!trace_out.empty()) obs::FlightRecorder::global().set_enabled(true);

  serve::ServeDaemon daemon(pipeline, sopt);
  daemon.start();
  serve::UdsServer server(daemon, socket_path);
  if (!server.start()) {
    daemon.stop();
    return 1;
  }
  std::printf("fsda serve: listening on %s (%zu workers, batch %zu..%zu, "
              "queue cap %zu, SLO %.1f ms)\n",
              socket_path.c_str(), daemon.options().workers,
              sopt.batch.min_batch_rows, sopt.batch.max_batch_rows,
              sopt.max_queue_depth, slo_ms);
  std::printf("stop with `fsda_cli client %s shutdown` or Ctrl-C\n",
              socket_path.c_str());
  std::signal(SIGINT, serve_sigint_handler);
  while (!server.shutdown_requested() &&
         !g_serve_interrupted.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  daemon.stop();
  const serve::ServeDaemon::Stats s = daemon.stats();
  std::printf("served %llu requests in %llu batches (%.2f rows/batch), "
              "shed %llu (queue) + %llu (slo), %llu failed\n",
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.batches),
              s.batches > 0 ? static_cast<double>(s.batched_rows) /
                                  static_cast<double>(s.batches)
                            : 0.0,
              static_cast<unsigned long long>(s.shed_queue_full),
              static_cast<unsigned long long>(s.shed_slo),
              static_cast<unsigned long long>(s.failed));
  if (!trace_out.empty() &&
      obs::FlightRecorder::global().dump_to_file(trace_out)) {
    std::printf("flight-recorder journal written to %s "
                "(convert: fsda_cli obs perfetto %s trace.json)\n",
                trace_out.c_str(), trace_out.c_str());
  }
  return 0;
}

int cmd_client(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string socket_path = argv[2];
  std::string verb = "load";
  int i = 3;
  if (i < argc && argv[i][0] != '-') {
    verb = argv[i];
    ++i;
  }
  std::string which = "5gc";
  std::size_t requests = 200, rows = 1;
  for (; i < argc;) {
    const std::string arg = argv[i];
    if (arg == "5gc" || arg == "5gipc") {
      which = arg;
      ++i;
      continue;
    }
    if (i + 1 >= argc) return usage();
    if (arg == "--requests") requests = std::stoul(argv[i + 1]);
    else if (arg == "--rows") rows = std::stoul(argv[i + 1]);
    else return usage();
    i += 2;
  }

  serve::UdsClient client;
  if (!client.connect(socket_path)) {
    std::fprintf(stderr, "error: cannot connect to %s\n", socket_path.c_str());
    return 1;
  }
  if (verb == "ping") {
    if (!client.ping()) {
      std::fprintf(stderr, "error: no pong from %s\n", socket_path.c_str());
      return 1;
    }
    std::printf("pong from %s\n", socket_path.c_str());
    return 0;
  }
  if (verb == "shutdown") {
    client.request_shutdown();
    std::printf("shutdown requested\n");
    return 0;
  }
  if (verb != "load") return usage();

  const data::DomainSplit split = make_split(which);
  const la::Matrix& test = split.target_test.x;
  rows = std::max<std::size_t>(1, std::min(rows, test.rows()));
  la::Matrix x(rows, test.cols());
  la::Matrix proba;
  obs::HdrHistogram hist(bench::latency_hdr_options());
  std::size_t ok = 0, shed = 0, failed = 0;
  common::Stopwatch total;
  for (std::size_t req = 0; req < requests; ++req) {
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t src = (req * rows + r) % test.rows();
      for (std::size_t c = 0; c < test.cols(); ++c) x(r, c) = test(src, c);
    }
    serve::WireError err = serve::WireError::None;
    common::Stopwatch timer;
    if (client.predict(x, proba, err)) {
      hist.record_always(timer.millis());
      ++ok;
    } else if (err == serve::WireError::ShedQueueFull ||
               err == serve::WireError::ShedSlo) {
      ++shed;
    } else {
      ++failed;
      if (!client.connected()) break;
    }
  }
  const double secs = total.seconds();
  const bench::LatencyStats q = bench::quantiles(hist);
  std::printf("%zu ok, %zu shed, %zu failed in %.2fs (%.0f req/s)\n", ok, shed,
              failed, secs,
              secs > 0 ? static_cast<double>(ok + shed + failed) / secs : 0.0);
  std::printf("latency ms: p50 %.4f  p90 %.4f  p99 %.4f  p999 %.4f\n",
              q.p50_ms, q.p90_ms, q.p99_ms, q.p999_ms);
  return 0;
}

// ---------------------------------------------------------------------------
// obs: snapshot / journal inspection

std::optional<obs::JsonValue> parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return obs::json_parse(buf.str());
}

std::string scalar_repr(const obs::JsonValue& v) {
  switch (v.type) {
    case obs::JsonValue::Type::Null: return "null";
    case obs::JsonValue::Type::Bool: return v.boolean ? "true" : "false";
    case obs::JsonValue::Type::Number: return obs::json_number(v.number);
    case obs::JsonValue::Type::String: return v.string;
    default: return "?";
  }
}

/// Depth-first flatten to `dotted.path -> scalar` pairs, preserving the
/// emission order so print/diff output is deterministic.
void flatten_json(const obs::JsonValue& v, const std::string& prefix,
                  std::vector<std::pair<std::string, std::string>>& out) {
  if (v.is_object()) {
    for (const auto& [key, member] : v.object) {
      flatten_json(member, prefix.empty() ? key : prefix + "." + key, out);
    }
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.array.size(); ++i) {
      flatten_json(v.array[i], prefix + "[" + std::to_string(i) + "]", out);
    }
  } else {
    out.emplace_back(prefix, scalar_repr(v));
  }
}

int cmd_obs_print(const std::string& path) {
  const auto doc = parse_json_file(path);
  if (!doc) {
    std::fprintf(stderr, "error: %s is not readable JSON\n", path.c_str());
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> flat;
  flatten_json(*doc, "", flat);
  std::size_t width = 0;
  for (const auto& [key, value] : flat) width = std::max(width, key.size());
  for (const auto& [key, value] : flat) {
    std::printf("%-*s  %s\n", static_cast<int>(width), key.c_str(),
                value.c_str());
  }
  return 0;
}

int cmd_obs_diff(const std::string& path_a, const std::string& path_b) {
  const auto doc_a = parse_json_file(path_a);
  const auto doc_b = parse_json_file(path_b);
  if (!doc_a || !doc_b) {
    std::fprintf(stderr, "error: %s is not readable JSON\n",
                 (!doc_a ? path_a : path_b).c_str());
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> flat_a, flat_b;
  flatten_json(*doc_a, "", flat_a);
  flatten_json(*doc_b, "", flat_b);
  auto lookup = [](const std::vector<std::pair<std::string, std::string>>& v,
                   const std::string& key) -> const std::string* {
    for (const auto& [k, value] : v) {
      if (k == key) return &value;
    }
    return nullptr;
  };
  std::size_t changes = 0;
  for (const auto& [key, old_value] : flat_a) {
    const std::string* new_value = lookup(flat_b, key);
    if (new_value == nullptr) {
      std::printf("- %s  %s\n", key.c_str(), old_value.c_str());
      ++changes;
    } else if (*new_value != old_value) {
      std::printf("~ %s  %s -> %s\n", key.c_str(), old_value.c_str(),
                  new_value->c_str());
      ++changes;
    }
  }
  for (const auto& [key, new_value] : flat_b) {
    if (lookup(flat_a, key) == nullptr) {
      std::printf("+ %s  %s\n", key.c_str(), new_value.c_str());
      ++changes;
    }
  }
  std::printf("%zu difference%s\n", changes, changes == 1 ? "" : "s");
  return 0;
}

int cmd_obs(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string verb = argv[2];
  if (verb == "print" && argc == 4) return cmd_obs_print(argv[3]);
  if (verb == "diff" && argc == 5) return cmd_obs_diff(argv[3], argv[4]);
  if (verb == "perfetto" && argc == 5) {
    if (!obs::jsonl_to_perfetto(argv[3], argv[4])) {
      std::fprintf(stderr, "error: could not convert %s\n", argv[3]);
      return 1;
    }
    std::printf("perfetto trace written to %s (load at ui.perfetto.dev)\n",
                argv[4]);
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "demo") {
      return cmd_demo(argc > 2 ? argv[2] : "5gc");
    }
    if (command == "export") {
      if (argc < 3) return usage();
      return cmd_export(argv[2], argc > 3 ? argv[3] : "5gc");
    }
    if (command == "run") {
      return cmd_run(argc, argv);
    }
    if (command == "serve-bench") {
      return cmd_serve_bench(argc, argv);
    }
    if (command == "serve") {
      return cmd_serve(argc, argv);
    }
    if (command == "client") {
      return cmd_client(argc, argv);
    }
    if (command == "obs") {
      return cmd_obs(argc, argv);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
