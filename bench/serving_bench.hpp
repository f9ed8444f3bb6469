// Shared measurement harness for the serving path: single-sample latency
// quantiles and micro-batch throughput of a trained pipeline's session
// (`fsda_cli serve-bench`), plus the latency-histogram helpers
// bench_serving reports through.
//
// Latencies go through an obs::HdrHistogram (record_always -- bench runs
// keep the telemetry gate off) instead of a sorted sample: quantiles come
// with the HDR relative-error bound, extend to p999, and the same
// histograms merge into windowed views elsewhere in the serving stack.
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/stopwatch.hpp"
#include "core/pipeline.hpp"
#include "la/matrix.hpp"
#include "obs/hdr_histogram.hpp"

namespace fsda::bench {

struct LatencyStats {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// Layout for latency histograms: sub-millisecond packed calls up to
/// multi-second stalls, ~0.8% quantile error (6 sub-bucket bits).
[[nodiscard]] inline obs::HdrOptions latency_hdr_options() {
  obs::HdrOptions o;
  o.min_value = 1e-4;
  o.max_value = 1e5;
  o.sub_bucket_bits = 6;
  return o;
}

[[nodiscard]] inline LatencyStats quantiles(const obs::HdrHistogram& hist) {
  LatencyStats out;
  if (hist.count() == 0) return out;
  out.p50_ms = hist.value_at_quantile(0.50);
  out.p90_ms = hist.value_at_quantile(0.90);
  out.p99_ms = hist.value_at_quantile(0.99);
  out.p999_ms = hist.value_at_quantile(0.999);
  return out;
}

/// One serving path's numbers: per-call latency and batched throughput.
struct PathStats {
  LatencyStats single;
  double samples_per_sec = 0.0;
};

/// Measures the pipeline's serving path.  Rows of `test` are cycled so
/// successive calls do not hit identical inputs.
inline PathStats measure_serving_path(core::FsGanPipeline& pipeline,
                                      const la::Matrix& test,
                                      std::size_t single_iters,
                                      std::size_t batch_rows,
                                      std::size_t batch_reps) {
  PathStats stats;
  la::Matrix proba;
  {
    la::Matrix sample(1, test.cols());
    for (std::size_t c = 0; c < test.cols(); ++c) sample(0, c) = test(0, c);
    for (int warm = 0; warm < 3; ++warm) {
      pipeline.predict_proba_into(sample, proba);
    }
    obs::HdrHistogram hist(latency_hdr_options());
    common::Stopwatch timer;
    for (std::size_t i = 0; i < single_iters; ++i) {
      const std::size_t r = i % test.rows();
      for (std::size_t c = 0; c < test.cols(); ++c) sample(0, c) = test(r, c);
      timer.reset();
      pipeline.predict_proba_into(sample, proba);
      hist.record_always(timer.millis());
    }
    stats.single = quantiles(hist);
  }
  {
    const std::size_t rows = std::min(batch_rows, test.rows());
    la::Matrix batch(rows, test.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < test.cols(); ++c) batch(r, c) = test(r, c);
    }
    pipeline.predict_proba_into(batch, proba);  // warm the batch buffers
    common::Stopwatch timer;
    for (std::size_t rep = 0; rep < batch_reps; ++rep) {
      pipeline.predict_proba_into(batch, proba);
    }
    const double secs = timer.seconds();
    stats.samples_per_sec =
        secs > 0.0 ? static_cast<double>(rows * batch_reps) / secs : 0.0;
  }
  return stats;
}

}  // namespace fsda::bench
