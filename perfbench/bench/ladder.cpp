#include "ladder.hpp"

#include <atomic>
#include <map>

#include "causal/fnode.hpp"
#include "core/cgan.hpp"
#include "la/gemm.hpp"
#include "models/neural.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "serve/uds.hpp"
#include "serve/wire.hpp"
#include "socket_load.hpp"

namespace perfbench {

using namespace fsda;

namespace {

constexpr std::size_t kB1Iters = 3000;
constexpr std::size_t kB64Iters = 400;
constexpr std::size_t kWireIters = 20000;
constexpr std::size_t kMaxReplays = 4;

/// Median microseconds of `iters` calls of `fn(i)`, after a short warm-up.
template <typename Fn>
double median_us(std::size_t iters, Fn&& fn) {
  for (std::size_t i = 0; i < 8; ++i) fn(i);
  std::vector<double> us;
  us.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return summarize(std::move(us)).p50;
}

la::Matrix rows_of(const la::Matrix& src, std::size_t first, std::size_t n) {
  la::Matrix out(n, src.cols());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < src.cols(); ++c) {
      out(r, c) = src((first + r) % src.rows(), c);
    }
  }
  return out;
}

/// The dense layers of one serving network as GEMM shapes (k x n), each
/// with packed random weights and its own input of width k -- the GEMM work
/// the network's plan does per row, without the plan around it.
struct GemmSet {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  std::vector<la::PackedB> packs;
  std::vector<std::vector<double>> biases;

  explicit GemmSet(std::vector<std::pair<std::size_t, std::size_t>> kn)
      : shapes(std::move(kn)) {
    common::Rng rng(17);
    for (const auto& [k, n] : shapes) {
      la::Matrix b(k, n);
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal() * 0.1;
      }
      packs.emplace_back();
      packs.back().pack(b);
      biases.emplace_back(n, 0.01);
    }
  }

  /// Multiply-adds x2 per row.
  [[nodiscard]] double flops_per_row() const {
    double f = 0.0;
    for (const auto& [k, n] : shapes) f += 2.0 * static_cast<double>(k * n);
    return f;
  }
  /// Weights read once plus every layer's input and output rows, f64.
  [[nodiscard]] double bytes(std::size_t rows) const {
    double b = 0.0;
    for (const auto& [k, n] : shapes) {
      b += 8.0 * static_cast<double>(k * n + rows * (k + n));
    }
    return b;
  }
};

/// Dense-layer shapes of `net` in visit order.
void collect_linear(nn::Layer& net,
                    std::vector<std::pair<std::size_t, std::size_t>>& out) {
  if (auto* lin = dynamic_cast<nn::Linear*>(&net)) {
    out.emplace_back(lin->in_features(), lin->out_features());
    return;
  }
  net.for_each_child([&](nn::Layer& child) { collect_linear(child, out); });
}

/// Times one network's GEMMs at batch 1 and 64; records us, GFLOP/s and
/// the shape-derived work.  Returns the batch-1 time.
double gemm_rung(const std::string& tag, const GemmSet& set, Report& report) {
  double b1_us = 0.0;
  for (const std::size_t rows : {std::size_t{1}, kBatchRows}) {
    std::vector<la::Matrix> in, out;
    for (const auto& [k, n] : set.shapes) {
      in.emplace_back(rows, k, 0.5);
      out.emplace_back(rows, n);
    }
    const double us =
        median_us(rows == 1 ? kB1Iters : kB64Iters, [&](std::size_t) {
          for (std::size_t l = 0; l < set.shapes.size(); ++l) {
            la::GemmEpilogue ep;
            ep.bias = set.biases[l].data();
            ep.act = la::GemmAct::ReLU;
            la::gemm_packed(in[l], set.packs[l], out[l], ep);
          }
        });
    const std::string b = rows == 1 ? "b1" : "b64";
    const double flop = set.flops_per_row() * static_cast<double>(rows);
    report.layer("gemm.us." + tag + "." + b, us, "us");
    report.layer("gemm.gflops." + tag + "." + b, flop / (us * 1e3), "GFLOP/s");
    report.layer("gemm.flop." + tag + "." + b, flop, "flop");
    report.layer("gemm.bytes." + tag + "." + b, set.bytes(rows), "B");
    if (rows == 1) b1_us = us;
  }
  return b1_us;
}

}  // namespace

void serving_ladder(Fixture& fx, serve::ServeDaemon& daemon,
                    const std::string& socket_path, Report& report) {
  core::FsGanPipeline& pipeline = *fx.pipeline;
  const core::GenerationPtr gen = pipeline.active_generation();
  const std::size_t classes = pipeline.num_classes();
  const la::Matrix& raw = fx.probe.x;

  // -- gemm: the generator's real layer shapes, the classifier's from the
  //    MLP factory defaults (its network is not reachable from outside).
  double gemm_b1_us = 0.0;
  std::vector<std::pair<std::size_t, std::size_t>> gen_shapes;
  if (auto* gan = dynamic_cast<core::ConditionalGAN*>(gen->reconstructor.get())) {
    if (nn::Sequential* net = gan->generator_network()) collect_linear(*net, gen_shapes);
  }
  report.check(!gen_shapes.empty(), "generator network shapes found");
  if (!gen_shapes.empty()) gemm_b1_us += gemm_rung("gen", GemmSet(gen_shapes), report);
  {
    std::vector<std::pair<std::size_t, std::size_t>> clf_shapes;
    std::size_t width = pipeline.trained_order().size();
    for (const std::size_t h : models::NeuralOptions{}.hidden) {
      clf_shapes.emplace_back(width, h);
      width = h;
    }
    clf_shapes.emplace_back(width, classes);
    gemm_b1_us += gemm_rung("clf", GemmSet(clf_shapes), report);
  }

  // -- session: packed plans through a private ServeContext, scaled rows.
  double session_b1_us = 0.0;
  report.check(gen->session != nullptr, "packed serving plans are active");
  if (gen->session != nullptr) {
    auto ctx = gen->session->create_serve_context(99);
    ctx->reserve(kBatchRows);
    la::Matrix proba;
    for (const std::size_t rows : {std::size_t{1}, kBatchRows}) {
      std::vector<la::Matrix> xs;
      for (std::size_t k = 0; k < 16; ++k) {
        xs.push_back(pipeline.scaler().transform(rows_of(raw, k * rows, rows)));
      }
      const double us = median_us(rows == 1 ? kB1Iters : kB64Iters,
                                  [&](std::size_t i) {
        gen->session->predict_proba_scaled(xs[i % xs.size()], proba, *ctx);
      });
      report.layer(rows == 1 ? "session.serve_us.b1" : "session.serve_us.b64",
                   us, "us");
      if (rows == 1) session_b1_us = us;
    }
  }

  // -- pipeline: predict_proba_serve (scale, quarantine, clamp, guard) on a
  //    private slot, raw rows.
  double pipeline_b1_us = 0.0;
  {
    auto slot = pipeline.create_serve_slot(7);
    pipeline.reserve_serve_slot(*slot, kBatchRows);
    la::Matrix proba;
    for (const std::size_t rows : {std::size_t{1}, kBatchRows}) {
      std::vector<la::Matrix> xs;
      for (std::size_t k = 0; k < 16; ++k) xs.push_back(rows_of(raw, k * rows, rows));
      const double us = median_us(rows == 1 ? kB1Iters : kB64Iters,
                                  [&](std::size_t i) {
        pipeline.predict_proba_serve(xs[i % xs.size()], proba, *slot);
      });
      report.layer(rows == 1 ? "pipeline.serve_us.b1" : "pipeline.serve_us.b64",
                   us, "us");
      if (rows == 1) pipeline_b1_us = us;
    }
  }

  // -- daemon: idle submit -> completion callback, one row at a time.
  double daemon_b1_us = 0.0;
  {
    std::vector<la::Matrix> xs;
    for (std::size_t k = 0; k < 64; ++k) xs.push_back(rows_of(raw, k, 1));
    std::atomic<bool> done{false};
    std::uint64_t bad = 0;
    daemon_b1_us = median_us(kB1Iters, [&](std::size_t i) {
      done.store(false);
      const serve::Admission a = daemon.submit(
          xs[i % xs.size()], 1000000 + i, [&](serve::ServeResult&& r) {
            if (r.error != serve::WireError::None || !rows_on_simplex(r.proba)) {
              ++bad;
            }
            done.store(true);
            done.notify_one();
          });
      if (a != serve::Admission::Accepted) {
        ++bad;
        return;
      }
      done.wait(false);
    });
    report.layer("daemon.submit_us.b1", daemon_b1_us, "us");
    report.check(bad == 0, "idle daemon submits all answered validly");
  }

  // -- socket: idle UdsClient round trip.
  double uds_b1_us = 0.0;
  {
    serve::UdsClient client;
    report.check(client.connect(socket_path), "ladder client connects");
    std::vector<la::Matrix> xs;
    for (std::size_t k = 0; k < 64; ++k) xs.push_back(rows_of(raw, k, 1));
    la::Matrix proba;
    std::uint64_t bad = 0;
    uds_b1_us = median_us(kB1Iters, [&](std::size_t i) {
      serve::WireError err = serve::WireError::None;
      if (!client.predict(xs[i % xs.size()], proba, err) ||
          proba.cols() != classes) {
        ++bad;
      }
    });
    report.layer("uds.rtt_us.b1", uds_b1_us, "us");
    report.check(bad == 0, "idle socket predicts all answered validly");
  }

  // -- wire: encode a 1-row Predict frame, decode a 1-row Proba reply.
  {
    const la::Matrix x = rows_of(raw, 0, 1);
    std::vector<std::uint8_t> req;
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kWireIters; ++i) {
      req.clear();
      serve::append_matrix_frame(req, serve::FrameType::Predict, i, x);
    }
    report.layer("wire.encode_us",
                 static_cast<double>(now_ns() - t0) * 1e-3 / kWireIters, "us");
    std::vector<std::uint8_t> rep;
    serve::append_matrix_frame(rep, serve::FrameType::Proba, 1,
                               la::Matrix(1, classes, 1.0 / classes));
    serve::FrameReader reader;
    serve::Frame frame;
    la::Matrix proba;
    std::size_t decoded = 0;
    t0 = now_ns();
    for (std::size_t i = 0; i < kWireIters; ++i) {
      reader.feed(rep.data(), rep.size());
      while (reader.next(frame)) {
        decoded += serve::decode_matrix_payload(frame, proba) ? 1 : 0;
      }
    }
    report.layer("wire.decode_us",
                 static_cast<double>(now_ns() - t0) * 1e-3 / kWireIters, "us");
    report.check(decoded == kWireIters, "wire decode round-trips");
    report.layer("wire.bytes_per_req",
                 static_cast<double>(req.size() + rep.size()), "B");
  }

  // Rung deltas: what each layer adds on top of the one below it (b1 p50s).
  report.layer("rung.uds_minus_daemon_us", uds_b1_us - daemon_b1_us, "us");
  report.layer("rung.daemon_minus_pipeline_us", daemon_b1_us - pipeline_b1_us,
               "us");
  report.layer("rung.pipeline_minus_session_us",
               pipeline_b1_us - session_b1_us, "us");
  report.layer("rung.session_minus_gemm_us", session_b1_us - gemm_b1_us, "us");
  report.layer("rung.gemm_us", gemm_b1_us, "us");
}

void loop_ladder(Fixture& fx, Report& report) {
  core::FsGanPipeline& pipeline = *fx.pipeline;
  std::vector<data::Dataset> batches;
  for (std::size_t k = 0; k < 16; ++k) {
    batches.push_back(fx.stream->batch(kTrainedDomain));
  }
  la::Matrix proba;
  {
    core::DriftLoop loop(pipeline, drift_loop_options(fx, /*background=*/false));
    // Suppressed detector: the rung times the stable path, never a
    // re-adaptation.
    loop.detector().suppress(kB64Iters + 64);
    report.layer("loop.serve_us.b64", median_us(kB64Iters, [&](std::size_t i) {
      const data::Dataset& d = batches[i % batches.size()];
      loop.serve(d.x, d.y, proba);
    }), "us");
    report.check(loop.stats().attempts == 0, "loop rung never re-adapted");
  }
  report.layer("pipeline.predict_into_us.b64",
               median_us(kB64Iters, [&](std::size_t i) {
    pipeline.predict_proba_into(batches[i % batches.size()].x, proba);
  }), "us");
  {
    const core::DriftLoopOptions lo = drift_loop_options(fx, false);
    core::DriftDetector detector(lo.detector);
    detector.fit(pipeline.scaled_source());
    std::vector<la::Matrix> scaled;
    for (const data::Dataset& d : batches) {
      scaled.push_back(pipeline.scaler().transform(d.x));
    }
    report.layer("detector.observe_us.b64",
                 median_us(kB64Iters, [&](std::size_t i) {
      (void)detector.observe(scaled[i % scaled.size()]);
    }), "us");
    core::AdaptationBuffer buffer(lo.buffer_capacity, fx.source.num_features(),
                                  pipeline.num_classes());
    buffer.enable_stats(&pipeline.scaler());
    report.layer("buffer.ingest_us.b64",
                 median_us(kB64Iters, [&](std::size_t i) {
      const data::Dataset& d = batches[i % batches.size()];
      buffer.ingest(d.x, d.y);
    }), "us");
  }
}

void fnode_replay(Fixture& fx, const std::vector<data::Dataset>& snapshots,
                  Report& report) {
  std::vector<double> ms;
  double tests = 0.0;
  double seconds = 0.0;
  const std::size_t n = std::min(snapshots.size(), kMaxReplays);
  for (std::size_t i = 0; i < n; ++i) {
    const data::Dataset& snap = snapshots[i];
    const la::Matrix target = fx.pipeline->scaler().transform(snap.x);
    const std::int64_t t0 = now_ns();
    const causal::FNodeResult res = causal::find_intervention_targets(
        fx.pipeline->scaled_source(), target, fx.options.fs);
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    ms.push_back(s * 1e3);
    seconds += s;
    tests += static_cast<double>(res.ci_tests_performed);
  }
  report.layer("fnode.ms", summarize(ms).p50, "ms");
  report.layer("fnode.ci_tests", n > 0 ? tests / static_cast<double>(n) : 0.0,
               "count");
  report.layer("fnode.tests_per_s", seconds > 0.0 ? tests / seconds : 0.0, "1/s");
  report.layer("fnode.replays", static_cast<double>(n), "count");
}

void readapt_rung(Fixture& fx, const data::Dataset& shots, Report& report) {
  core::FsGanPipeline& pipeline = *fx.pipeline;
  const std::int64_t t0 = now_ns();
  const core::CandidateOutcome cand =
      pipeline.build_candidate_generation(shots, fx.options.fs, core::ReadaptContext{});
  const std::int64_t t1 = now_ns();
  report.check(cand.generation != nullptr, "rung candidate built: " + cand.reason);
  if (cand.generation == nullptr) return;
  const core::ValidationVerdict verdict = pipeline.validate_generation(
      cand.generation, drift_loop_options(fx, false).validation);
  const std::int64_t t2 = now_ns();
  report.check(verdict.ok, "rung candidate validates: " + verdict.reason);
  report.layer("readapt.build_ms", static_cast<double>(t1 - t0) * 1e-6, "ms");
  report.layer("readapt.validate_ms", static_cast<double>(t2 - t1) * 1e-6, "ms");
}

std::vector<double> scope_ms(const obs::Journal& journal,
                             const std::string& name) {
  std::vector<double> out;
  std::map<std::uint32_t, std::uint64_t> open;  // tid -> Begin ts
  for (const obs::Event& e : journal.events) {
    if (journal.name(e.name_id) != name) continue;
    if (e.type == obs::EventType::Begin) {
      open[e.tid] = e.ts_ns;
    } else if (e.type == obs::EventType::End) {
      const auto it = open.find(e.tid);
      if (it == open.end()) continue;
      out.push_back(static_cast<double>(e.ts_ns - it->second) * 1e-6);
      open.erase(it);
    }
  }
  return out;
}

}  // namespace perfbench
