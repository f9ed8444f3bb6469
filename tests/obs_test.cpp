// fsda::obs unit tests: sharded counters under concurrent hammering,
// gating, exposition/JSON formats, drift PSI, and the snapshot sink.
// (HDR histograms, the flight recorder and its span tree are covered in
// obs_journal_test.cpp.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "la/matrix.hpp"
#include "obs/drift.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace fsda {
namespace {

/// Enables counter/HDR recording for one test, restoring the prior
/// state afterwards (the flag is process-global).
class TelemetryOn {
 public:
  TelemetryOn() : prior_(obs::telemetry_enabled()) {
    obs::set_telemetry_enabled(true);
  }
  ~TelemetryOn() { obs::set_telemetry_enabled(prior_); }

 private:
  bool prior_;
};

TEST(CounterTest, ExactTotalUnderConcurrentIncrements) {
  TelemetryOn on;
  obs::Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::size_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(CounterTest, ExactTotalFromPoolWorkers) {
  TelemetryOn on;
  obs::Counter counter;
  // Hammer through parallel_for so increments run on the global pool's
  // worker threads (inline on a single-core host; the total is exact
  // either way).
  constexpr std::size_t kIters = 50000;
  common::parallel_for(kIters, [&counter](std::size_t) { counter.inc(2); });
  EXPECT_EQ(counter.value(), 2 * kIters);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(CounterTest, DisabledIncrementIsDropped) {
  obs::Counter counter;
  const bool prior = obs::telemetry_enabled();
  obs::set_telemetry_enabled(false);
  counter.inc(100);
  EXPECT_EQ(counter.value(), 0u);
  obs::set_telemetry_enabled(prior);
}

TEST(GaugeTest, SetAppliesEvenWhenDisabled) {
  obs::Gauge gauge;
  const bool prior = obs::telemetry_enabled();
  obs::set_telemetry_enabled(false);
  gauge.set(3.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.25);
  gauge.add(0.75);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  obs::set_telemetry_enabled(prior);
}

TEST(ThreadPoolTelemetryTest, WorkersRecordTasksAndQueueWait) {
  TelemetryOn on;
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t before =
      registry.counter("pool.tasks_total").value();
  common::ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();
  EXPECT_GE(registry.counter("pool.tasks_total").value(), before + 16);
}

TEST(RegistryTest, HandlesAreStableAndTyped) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("a.b_total");
  obs::Counter& c2 = reg.counter("a.b_total");
  EXPECT_EQ(&c1, &c2);
  EXPECT_TRUE(reg.has("a.b_total"));
  EXPECT_FALSE(reg.has("missing"));
  reg.gauge("a.g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("a.g"), 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("missing", -1.0), -1.0);
  // Same name with a different type is a registration bug.
  EXPECT_THROW(reg.gauge("a.b_total"), common::InvariantError);
}

TEST(RegistryTest, ExpositionGolden) {
  TelemetryOn on;
  obs::MetricsRegistry reg;
  reg.counter("fs.ci_tests_total", "CI tests run").inc(3);
  reg.gauge("drift.psi{feature=\"3\"}").set(0.5);
  // Two sub-buckets per octave keep bucket midpoints exact in binary;
  // p90+ land in [96, 128) and clamp to the observed max.
  obs::HdrHistogram& hist = reg.hdr("predict.latency_ms",
                                    obs::HdrOptions{1.0, 1024.0, 1},
                                    "batch latency");
  hist.record(0.5);
  hist.record(5.0);
  hist.record(100.0);
  const std::string expected =
      "# HELP fsda_fs_ci_tests_total CI tests run\n"
      "# TYPE fsda_fs_ci_tests_total counter\n"
      "fsda_fs_ci_tests_total 3\n"
      "# TYPE fsda_drift_psi gauge\n"
      "fsda_drift_psi{feature=\"3\"} 0.5\n"
      "# HELP fsda_predict_latency_ms batch latency\n"
      "# TYPE fsda_predict_latency_ms summary\n"
      "fsda_predict_latency_ms{quantile=\"0.5\"} 5\n"
      "fsda_predict_latency_ms{quantile=\"0.9\"} 100\n"
      "fsda_predict_latency_ms{quantile=\"0.99\"} 100\n"
      "fsda_predict_latency_ms{quantile=\"0.999\"} 100\n"
      "fsda_predict_latency_ms_sum 105.5\n"
      "fsda_predict_latency_ms_count 3\n";
  EXPECT_EQ(reg.expose_text(), expected);
}

TEST(RegistryTest, SnapshotJsonGolden) {
  TelemetryOn on;
  obs::MetricsRegistry reg;
  reg.counter("c.n_total").inc(7);
  reg.gauge("g.v").set(1.5);
  reg.hdr("h.ms", obs::HdrOptions{1.0, 1024.0, 1}).record(1.0);
  const std::string expected =
      "{\"counters\":{\"c.n_total\":7},"
      "\"gauges\":{\"g.v\":1.5},"
      "\"hdr\":{\"h.ms\":{\"count\":1,\"sum\":1,\"min\":1,\"max\":1,"
      "\"p50\":1,\"p90\":1,\"p99\":1,\"p999\":1,"
      "\"relative_error_bound\":0.25}}}";
  EXPECT_EQ(reg.snapshot_json(), expected);
}

TEST(RegistryTest, HdrSnapshotJsonReportsQuantiles) {
  TelemetryOn on;
  obs::MetricsRegistry reg;
  obs::HdrHistogram& h = reg.hdr("lat.ms");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"hdr\":{\"lat.ms\":{\"count\":100"),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  EXPECT_NE(json.find("\"relative_error_bound\":"), std::string::npos);
  // The exposition renders hdr metrics as a Prometheus summary.
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("# TYPE fsda_lat_ms summary"), std::string::npos);
  EXPECT_NE(text.find("fsda_lat_ms{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("fsda_lat_ms_count 100"), std::string::npos);
}

TEST(RegistryTest, LabelValuesAreEscapedInExposition) {
  // Prometheus exposition requires backslash, double quote, and newline in
  // label VALUES to be escaped; a raw value would corrupt the scrape.
  EXPECT_EQ(obs::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::escape_label_value("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(obs::metric_with_label("drift.psi", "feature", "17"),
            "drift.psi{feature=\"17\"}");

  TelemetryOn on;
  obs::MetricsRegistry reg;
  reg.gauge(obs::metric_with_label("src.rows", "path", "C:\\data\n\"x\""))
      .set(1.0);
  const std::string expected =
      "# TYPE fsda_src_rows gauge\n"
      "fsda_src_rows{path=\"C:\\\\data\\n\\\"x\\\"\"} 1\n";
  EXPECT_EQ(reg.expose_text(), expected);
}

TEST(JsonParseTest, RoundTripsEmittedSubset) {
  const auto v = obs::json_parse(
      "{\"a\":1.5,\"b\":\"x\\ny\",\"c\":[1,2,3],\"d\":{\"e\":true},"
      "\"f\":null}");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->number_or("a", 0.0), 1.5);
  EXPECT_EQ(v->string_or("b", ""), "x\ny");
  const obs::JsonValue* arr = v->find("c");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->array.size(), 3u);
  EXPECT_DOUBLE_EQ(arr->array[1].number, 2.0);
  const obs::JsonValue* d = v->find("d");
  ASSERT_NE(d, nullptr);
  ASSERT_NE(d->find("e"), nullptr);
  EXPECT_TRUE(d->find("e")->boolean);
  EXPECT_EQ(v->find("f")->type, obs::JsonValue::Type::Null);
  // Malformed documents parse to nullopt, never throw.
  EXPECT_FALSE(obs::json_parse("{\"a\":}").has_value());
  EXPECT_FALSE(obs::json_parse("[1,2").has_value());
  EXPECT_FALSE(obs::json_parse("{} trailing").has_value());
}

TEST(RegistryTest, ResetValuesKeepsRegistrations) {
  TelemetryOn on;
  obs::MetricsRegistry reg;
  reg.counter("x_total").inc(5);
  reg.gauge("y").set(2.0);
  reg.hdr("z").record(0.5);
  reg.reset_values();
  EXPECT_TRUE(reg.has("x_total"));
  EXPECT_EQ(reg.counter("x_total").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("y"), 0.0);
  EXPECT_EQ(reg.hdr("z").count(), 0u);
}

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::json_string("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(obs::json_string("line\nbreak\ttab"),
            "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(obs::json_number(2.0), "2");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  // Non-finite doubles have no JSON literal; exported as null.
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

TEST(DriftMonitorTest, IdenticalDistributionScoresNearZero) {
  la::Matrix ref(512, 3);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    const double v = -1.0 + 2.0 * static_cast<double>(r) /
                                static_cast<double>(ref.rows() - 1);
    ref(r, 0) = v;
    ref(r, 1) = v * 0.5;
    ref(r, 2) = 42.0;  // ignored: not monitored
  }
  obs::DriftMonitor monitor;
  monitor.fit(ref, {0, 1});
  ASSERT_TRUE(monitor.fitted());
  const std::vector<double> psi = monitor.psi(ref);
  ASSERT_EQ(psi.size(), 2u);
  EXPECT_LT(psi[0], 0.1);  // "stable" per the PSI rule of thumb
  EXPECT_LT(psi[1], 0.1);
}

TEST(DriftMonitorTest, ShiftedDistributionScoresHigh) {
  la::Matrix ref(512, 2);
  la::Matrix shifted(512, 2);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    const double v = -0.9 + 1.0 * static_cast<double>(r) /
                                static_cast<double>(ref.rows() - 1);
    ref(r, 0) = v;
    ref(r, 1) = v;
    shifted(r, 0) = v + 0.8;  // bulk moves most of a bin width
    shifted(r, 1) = v;        // unchanged
  }
  obs::DriftMonitor monitor;
  monitor.fit(ref, {0, 1});
  const std::vector<double> psi = monitor.psi(shifted);
  ASSERT_EQ(psi.size(), 2u);
  EXPECT_GT(psi[0], 0.25);  // "action needed"
  EXPECT_LT(psi[1], 0.1);
}

TEST(DriftMonitorTest, NonFiniteCellsAreSkipped) {
  la::Matrix ref(512, 1);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    ref(r, 0) = -1.0 + 2.0 * static_cast<double>(r) / 511.0;
  }
  obs::DriftMonitor monitor;
  monitor.fit(ref, {0});
  la::Matrix batch = ref;
  batch(0, 0) = std::numeric_limits<double>::quiet_NaN();
  batch(1, 0) = std::numeric_limits<double>::infinity();
  const std::vector<double> psi = monitor.psi(batch);
  ASSERT_EQ(psi.size(), 1u);
  EXPECT_TRUE(std::isfinite(psi[0]));
  EXPECT_LT(psi[0], 0.1);
}

TEST(DriftMonitorTest, AllNonFiniteReferenceColumnThrows) {
  la::Matrix ref(64, 2);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    ref(r, 0) = -1.0 + 2.0 * static_cast<double>(r) / 63.0;
    ref(r, 1) = std::numeric_limits<double>::quiet_NaN();  // dead sensor
  }
  obs::DriftMonitor monitor;
  EXPECT_THROW(monitor.fit(ref, {0, 1}), common::NumericError);
  EXPECT_FALSE(monitor.fitted());  // not left half-fitted
}

TEST(DriftMonitorTest, EmptyReferenceBinsStayFinite) {
  // Reference concentrated in one interior bin; the batch lands entirely in
  // bins the reference never saw.  Smoothing + the psi floor must keep both
  // statistics finite and large.
  la::Matrix ref(256, 1, 0.05);
  la::Matrix batch(256, 1, 1.25);
  obs::DriftMonitor monitor;
  monitor.fit(ref, {0});
  const std::vector<double> psi = monitor.psi(batch);
  ASSERT_EQ(psi.size(), 1u);
  EXPECT_TRUE(std::isfinite(psi[0]));
  EXPECT_GT(psi[0], 0.25);
  const std::vector<double> ks = monitor.ks(batch);
  ASSERT_EQ(ks.size(), 1u);
  EXPECT_GT(ks[0], 0.9);
  EXPECT_LE(ks[0], 1.0);
}

TEST(DriftMonitorTest, KsSeparatesShiftFromStability) {
  la::Matrix ref(512, 2);
  la::Matrix shifted(512, 2);
  for (std::size_t r = 0; r < ref.rows(); ++r) {
    const double v = -0.9 + 1.0 * static_cast<double>(r) / 511.0;
    ref(r, 0) = v;
    ref(r, 1) = v;
    shifted(r, 0) = v + 0.8;
    shifted(r, 1) = v;
  }
  obs::DriftMonitor monitor;
  monitor.fit(ref, {0, 1});
  const std::vector<double> ks = monitor.ks(shifted);
  ASSERT_EQ(ks.size(), 2u);
  EXPECT_GT(ks[0], 0.5);
  EXPECT_LT(ks[1], 0.05);
}

TEST(SnapshotSinkTest, AppendsJsonLinesWithExtras) {
  TelemetryOn on;
  const std::string path =
      testing::TempDir() + "/fsda_obs_test_snapshot.jsonl";
  std::remove(path.c_str());
  obs::SnapshotSink sink(path);
  EXPECT_TRUE(sink.flush({{"health", "{\"degraded\":false}"}}));
  EXPECT_TRUE(sink.flush());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line1, line2, line3;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line1)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line2)));
  EXPECT_FALSE(static_cast<bool>(std::getline(in, line3)));
  EXPECT_NE(line1.find("\"ts_unix_ms\":"), std::string::npos);
  EXPECT_NE(line1.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(line1.find("\"health\":{\"degraded\":false}"),
            std::string::npos);
  EXPECT_EQ(line2.find("\"health\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(SnapshotSinkTest, UnwritablePathFailsWithoutThrowing) {
  obs::SnapshotSink sink("/nonexistent-dir/nope/metrics.json");
  EXPECT_FALSE(sink.flush());
}

}  // namespace
}  // namespace fsda
