// Flight-recorder / HDR / SLO tests: ring overflow determinism, exact drop
// counts under concurrent writers, merged time ordering, HDR quantiles
// against a sorted-sample oracle, SLO window math, and the Perfetto/JSONL
// exporter round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/hdr_histogram.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto_export.hpp"
#include "obs/slo.hpp"

namespace fsda {
namespace {

/// Enables the flight recorder for one test, draining any leftover events
/// on entry and exit so tests stay independent.
class RecorderOn {
 public:
  RecorderOn() {
    auto& rec = obs::FlightRecorder::global();
    rec.reset();
    rec.set_enabled(true);
  }
  ~RecorderOn() {
    auto& rec = obs::FlightRecorder::global();
    rec.set_enabled(false);
    rec.reset();
  }
};

obs::Event make_event(std::uint64_t ts, std::uint32_t name_id = 0) {
  obs::Event e;
  e.ts_ns = ts;
  e.name_id = name_id;
  e.type = obs::EventType::Instant;
  e.cat = obs::EventCategory::System;
  return e;
}

TEST(EventRingTest, DropsNewestDeterministicallyWhenFull) {
  obs::EventRing ring(8);  // capacity rounds to 8
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_push(make_event(i)));
  }
  // Ring full: the next pushes are dropped (newest-loses), exactly counted.
  EXPECT_FALSE(ring.try_push(make_event(100)));
  EXPECT_FALSE(ring.try_push(make_event(101)));
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<obs::Event> out;
  EXPECT_EQ(ring.drain(out), 8u);
  ASSERT_EQ(out.size(), 8u);
  // The OLDEST events survive, in order; 100/101 never made it in.
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].ts_ns, i);
  // Draining frees the slots: pushes succeed again.
  EXPECT_TRUE(ring.try_push(make_event(200)));
  out.clear();
  EXPECT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out[0].ts_ns, 200u);
  EXPECT_EQ(ring.dropped(), 2u);  // drop counter is cumulative
}

TEST(EventRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(obs::EventRing(1).capacity(), 8u);   // floor
  EXPECT_EQ(obs::EventRing(9).capacity(), 16u);
  EXPECT_EQ(obs::EventRing(1024).capacity(), 1024u);
}

TEST(FlightRecorderTest, DisabledEmitRecordsNothing) {
  auto& rec = obs::FlightRecorder::global();
  rec.reset();
  rec.set_enabled(false);
  FSDA_EVENT_INSTANT(obs::EventCategory::System, "ghost", 1.0);
  const obs::Journal j = rec.snapshot();
  EXPECT_TRUE(j.events.empty());
}

TEST(FlightRecorderTest, SnapshotMergesTimeOrdered) {
  RecorderOn on;
  auto& rec = obs::FlightRecorder::global();
  FSDA_EVENT_INSTANT(obs::EventCategory::Serving, "first", 1.0);
  FSDA_EVENT_COUNTER(obs::EventCategory::Training, "second", 2.0);
  {
    FSDA_EVENT_SCOPE(obs::EventCategory::Drift, "scope");
  }
  const obs::Journal j = rec.snapshot();
  ASSERT_EQ(j.events.size(), 4u);  // instant + counter + B/E pair
  for (std::size_t i = 1; i < j.events.size(); ++i) {
    EXPECT_LE(j.events[i - 1].ts_ns, j.events[i].ts_ns);
  }
  EXPECT_EQ(j.name(j.events[0].name_id), "first");
  EXPECT_EQ(j.events[0].value, 1.0);
  EXPECT_EQ(j.events[1].type, obs::EventType::Counter);
  EXPECT_EQ(j.events[2].type, obs::EventType::Begin);
  EXPECT_EQ(j.events[3].type, obs::EventType::End);
  EXPECT_EQ(j.events[2].name_id, j.events[3].name_id);
  // Consumed: a second snapshot sees only newer events.
  EXPECT_TRUE(rec.snapshot().events.empty());
}

TEST(FlightRecorderTest, ExactDropTotalUnderConcurrentWriters) {
  RecorderOn on;
  auto& rec = obs::FlightRecorder::global();
  const std::uint64_t dropped_before = rec.dropped_events_total();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 40000;  // >> any ring capacity
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        FSDA_EVENT_INSTANT(obs::EventCategory::System, "hammer",
                           static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  const obs::Journal j = rec.snapshot();
  // Every emit either landed in the journal or was counted as dropped --
  // nothing is lost silently.  (Other threads of this test binary could
  // also emit, so >= on the left only if events leaked in; count exact
  // emits from our threads.)
  const std::uint64_t dropped = rec.dropped_events_total() - dropped_before;
  EXPECT_EQ(j.events.size() + dropped, kThreads * kPerThread);
  EXPECT_GT(dropped, 0u);  // the hammer must have overflowed the rings
}

TEST(FlightRecorderTest, InternIsStableAndSharedAcrossSites) {
  auto& rec = obs::FlightRecorder::global();
  const std::uint32_t a = rec.intern("obs.test.some_name");
  const std::uint32_t b = rec.intern("obs.test.some_name");
  const std::uint32_t c = rec.intern("obs.test.other_name");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FlightRecorderTest, JsonlDumpAndPerfettoRoundTrip) {
  RecorderOn on;
  auto& rec = obs::FlightRecorder::global();
  FSDA_EVENT_INSTANT(obs::EventCategory::Drift, "drift.trigger", 0.5);
  {
    FSDA_EVENT_SCOPE(obs::EventCategory::Serving, "predict.batch");
  }
  const std::string jsonl = testing::TempDir() + "/fsda_journal.jsonl";
  const std::string trace = testing::TempDir() + "/fsda_trace.json";
  std::remove(jsonl.c_str());
  ASSERT_TRUE(rec.dump_to_file(jsonl));

  obs::Journal back;
  ASSERT_TRUE(obs::read_jsonl_journal(jsonl, back));
  ASSERT_EQ(back.events.size(), 3u);
  EXPECT_EQ(back.name(back.events[0].name_id), "drift.trigger");
  EXPECT_EQ(back.events[0].value, 0.5);
  EXPECT_EQ(back.events[0].cat, obs::EventCategory::Drift);
  EXPECT_EQ(back.events[1].type, obs::EventType::Begin);
  EXPECT_EQ(back.events[2].type, obs::EventType::End);

  ASSERT_TRUE(obs::jsonl_to_perfetto(jsonl, trace));
  std::ifstream in(trace);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto parsed = obs::json_parse(text);
  ASSERT_TRUE(parsed.has_value());  // the trace is one valid JSON document
  const obs::JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 3u);
  EXPECT_EQ(events->array[0].string_or("ph", ""), "i");
  EXPECT_EQ(events->array[0].string_or("cat", ""), "drift");
  EXPECT_EQ(events->array[1].string_or("ph", ""), "B");
  EXPECT_EQ(events->array[2].string_or("ph", ""), "E");
  std::remove(jsonl.c_str());
  std::remove(trace.c_str());
}

// ---------------------------------------------------------------------------
// Span tree built from the journal

TEST(SpanTreeTest, NestsAndAggregates) {
  RecorderOn on;
  {
    FSDA_EVENT_SCOPE(obs::EventCategory::System, "outer");
    { FSDA_EVENT_SCOPE(obs::EventCategory::System, "inner"); }
    { FSDA_EVENT_SCOPE(obs::EventCategory::System, "inner"); }
    { FSDA_EVENT_SCOPE(obs::EventCategory::System, "other"); }
  }
  { FSDA_EVENT_SCOPE(obs::EventCategory::System, "outer"); }
  const obs::SpanSnapshot root =
      obs::span_tree(obs::FlightRecorder::global().snapshot());

  EXPECT_EQ(root.name, "root");
  ASSERT_EQ(root.children.size(), 1u);
  const obs::SpanSnapshot* outer = root.child("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2u);
  EXPECT_GE(outer->seconds, 0.0);
  const obs::SpanSnapshot* inner = outer->child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u);
  ASSERT_NE(outer->child("other"), nullptr);
  EXPECT_EQ(outer->child("other")->count, 1u);
  // Children's time is contained in the parent's.
  EXPECT_LE(inner->seconds, outer->seconds);

  const std::string text = obs::to_string(root);
  EXPECT_NE(text.find("outer: "), std::string::npos);
  EXPECT_NE(text.find("  inner: "), std::string::npos);
  EXPECT_EQ(text.find("dropped"), std::string::npos);
  const auto json = obs::json_parse(obs::to_json(root));
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->string_or("name", ""), "root");
  EXPECT_EQ(json->find("dropped_events"), nullptr);
  ASSERT_EQ(json->find("children")->array.size(), 1u);
  EXPECT_EQ(json->find("children")->array[0].string_or("name", ""), "outer");
}

TEST(SpanTreeTest, DisabledScopesLeaveNoNode) {
  auto& rec = obs::FlightRecorder::global();
  rec.reset();
  rec.set_enabled(false);
  { FSDA_EVENT_SCOPE(obs::EventCategory::System, "ghost"); }
  EXPECT_TRUE(obs::span_tree(rec.snapshot()).children.empty());
}

TEST(SpanTreeTest, ScopesOnTwoThreadsDoNotNest) {
  RecorderOn on;
  {
    FSDA_EVENT_SCOPE(obs::EventCategory::System, "main.outer");
    // The worker's scope opens and closes while main.outer is open on
    // this thread; it must still hang off the root.
    std::thread([] {
      FSDA_EVENT_SCOPE(obs::EventCategory::System, "worker.task");
    }).join();
  }
  const obs::SpanSnapshot root =
      obs::span_tree(obs::FlightRecorder::global().snapshot());
  const obs::SpanSnapshot* outer = root.child("main.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_TRUE(outer->children.empty());
  ASSERT_NE(root.child("worker.task"), nullptr);
  EXPECT_EQ(root.child("worker.task")->count, 1u);
}

TEST(SpanTreeTest, UnmatchedBeginAndEndAreSkipped) {
  RecorderOn on;
  auto& rec = obs::FlightRecorder::global();
  const std::size_t prior_capacity = rec.thread_ring_capacity();
  rec.set_thread_ring_capacity(8);  // only for the fresh thread below
  obs::Journal first, second;
  std::thread([&] {
    for (int i = 0; i < 8; ++i) {  // fill the ring
      FSDA_EVENT_INSTANT(obs::EventCategory::System, "fill", 0.0);
    }
    {
      FSDA_EVENT_SCOPE(obs::EventCategory::System, "lost");  // Begin dropped
      first = rec.snapshot();  // drains the ring
    }  // End of "lost" recorded with no Begin
    { FSDA_EVENT_SCOPE(obs::EventCategory::System, "kept"); }
    FSDA_EVENT_SCOPE(obs::EventCategory::System, "held");  // never closed
    second = rec.snapshot();
  }).join();
  rec.set_thread_ring_capacity(prior_capacity);

  EXPECT_EQ(first.events.size(), 8u);
  EXPECT_TRUE(obs::span_tree(first).children.empty());
  ASSERT_EQ(second.events.size(), 4u);  // E lost, B/E kept, B held
  const obs::SpanSnapshot root = obs::span_tree(second);
  ASSERT_EQ(root.children.size(), 1u);
  ASSERT_NE(root.child("kept"), nullptr);
  EXPECT_EQ(root.child("kept")->count, 1u);
  // The dropped Begin is reported, in both renderings.
  EXPECT_GE(root.dropped_events, 1u);
  EXPECT_NE(obs::to_string(root).find("journal events dropped"),
            std::string::npos);
  const auto json = obs::json_parse(obs::to_json(root));
  ASSERT_TRUE(json.has_value());
  EXPECT_GE(json->number_or("dropped_events", 0.0), 1.0);
}

// ---------------------------------------------------------------------------
// HdrHistogram

TEST(HdrHistogramTest, QuantilesMatchSortedOracleWithinBound) {
  obs::HdrHistogram h;  // defaults: [1e-3, 1e7], 5 sub-bucket bits
  common::Rng rng(0xABCDEF);
  std::vector<double> samples;
  samples.reserve(20000);
  for (std::size_t i = 0; i < 20000; ++i) {
    // Log-uniform latencies across four decades, the shape the histogram
    // exists for.
    samples.push_back(std::pow(10.0, rng.uniform(-1.0, 3.0)));
    h.record_always(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  const double bound = h.relative_error_bound();
  EXPECT_NEAR(bound, 1.0 / 64.0, 1e-12);  // documented: 1/(2*32) at 5 bits
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const std::size_t idx = static_cast<std::size_t>(std::max<std::int64_t>(
        0, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(samples.size()))) -
               1));
    const double exact = samples[idx];
    const double approx = h.value_at_quantile(q);
    EXPECT_NEAR(approx, exact, bound * exact)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  EXPECT_EQ(h.count(), 20000u);
  EXPECT_DOUBLE_EQ(h.min(), samples.front());
  EXPECT_DOUBLE_EQ(h.max(), samples.back());
}

TEST(HdrHistogramTest, ExactCountUnderConcurrentRecords) {
  obs::HdrHistogram h;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h.record_always(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  double expected_sum = 0.0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<double>((t + 1) * kPerThread);
  }
  EXPECT_DOUBLE_EQ(h.sum(), expected_sum);
}

TEST(HdrHistogramTest, OutOfRangeValuesClampIntoEdgeBuckets) {
  obs::HdrHistogram h({1.0, 1000.0, 5});
  h.record_always(0.001);    // below min -> bucket 0
  h.record_always(1e9);      // above max -> top bucket
  h.record_always(-3.0);     // negative -> bucket 0
  EXPECT_EQ(h.count(), 3u);
  // Exact extremes are still tracked outside the bucket lattice.
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  const auto buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets.front().count, 2u);
  EXPECT_EQ(buckets.back().count, 1u);
}

TEST(HdrHistogramTest, QuantilesStayInsideObservedRange) {
  // Mostly zeros (separating-set sizes): every zero sits below min_value,
  // so the bottom bucket's midpoint (~0.00102) would overstate p50.
  obs::HdrHistogram sizes;
  for (const double v : {0.0, 0.0, 0.0, 1.0}) sizes.record_always(v);
  EXPECT_EQ(sizes.value_at_quantile(0.5), 0.0);
  EXPECT_NEAR(sizes.value_at_quantile(1.0), 1.0,
              sizes.relative_error_bound());
  // Above max_value every value shares the top bucket, whose midpoint
  // would understate the tail; the exact max is the answer.
  obs::HdrHistogram big({1.0, 1000.0, 5});
  for (const double v : {2000.0, 3000.0, 5000.0}) big.record_always(v);
  EXPECT_EQ(big.value_at_quantile(0.999), big.max());
  EXPECT_EQ(big.max(), 5000.0);
}

TEST(HdrHistogramTest, MergePreservesTotalsAndQuantiles) {
  obs::HdrHistogram a, b;
  for (int i = 1; i <= 100; ++i) a.record_always(static_cast<double>(i));
  for (int i = 101; i <= 200; ++i) b.record_always(static_cast<double>(i));
  a.merge_from(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.sum(), 200.0 * 201.0 / 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 200.0);
  const double p50 = a.value_at_quantile(0.5);
  EXPECT_NEAR(p50, 100.0, a.relative_error_bound() * 100.0);
}

TEST(HdrHistogramTest, GatedRecordRespectsTelemetryFlag) {
  const bool prior = obs::telemetry_enabled();
  obs::set_telemetry_enabled(false);
  obs::HdrHistogram h;
  h.record(5.0);
  EXPECT_EQ(h.count(), 0u);
  obs::set_telemetry_enabled(true);
  h.record(5.0);
  EXPECT_EQ(h.count(), 1u);
  obs::set_telemetry_enabled(prior);
}

TEST(WindowedHdrTest, RotationRetiresOldEpochs) {
  obs::WindowedHdr w(3, {});
  w.record_always(10.0);
  w.rotate();
  w.record_always(20.0);
  EXPECT_EQ(w.merged().count(), 2u);  // both epochs still in the window
  w.rotate();
  w.rotate();  // the 10.0 epoch's slot is cleared as the window wraps onto it
  EXPECT_EQ(w.merged().count(), 1u);
  w.rotate();
  EXPECT_EQ(w.merged().count(), 0u);
}

// ---------------------------------------------------------------------------
// SloTracker

TEST(SloTrackerTest, BurnRateAndQuantileOverWindow) {
  obs::SloOptions opts;
  opts.latency_target_ms = 10.0;
  opts.objective = 0.9;           // 90% under 10 ms; budget = 10%
  opts.epoch_seconds = 3600.0;    // rotation driven manually in this test
  opts.window_epochs = 4;
  obs::SloTracker slo(opts);
  for (int i = 0; i < 95; ++i) slo.record(5.0);   // good
  for (int i = 0; i < 5; ++i) slo.record(50.0);   // bad
  EXPECT_EQ(slo.window_total(), 100u);
  EXPECT_EQ(slo.window_bad(), 5u);
  // 5% bad against a 10% budget: burning at half the allowed rate.
  EXPECT_NEAR(slo.error_budget_burn_rate(), 0.5, 1e-9);
  EXPECT_FALSE(slo.breaching());  // p90 = 5 ms, under the 10 ms target
  // Push the bad fraction past the budget: p90 crosses the target.
  for (int i = 0; i < 40; ++i) slo.record(50.0);
  EXPECT_GT(slo.error_budget_burn_rate(), 1.0);
  EXPECT_TRUE(slo.breaching());
}

TEST(SloTrackerTest, RotationSlidesTheWindow) {
  obs::SloOptions opts;
  opts.latency_target_ms = 10.0;
  opts.objective = 0.9;
  opts.epoch_seconds = 3600.0;
  opts.window_epochs = 2;
  obs::SloTracker slo(opts);
  for (int i = 0; i < 10; ++i) slo.record(50.0);  // all bad
  EXPECT_EQ(slo.window_bad(), 10u);
  slo.rotate();
  for (int i = 0; i < 10; ++i) slo.record(5.0);
  EXPECT_EQ(slo.window_total(), 20u);  // both epochs in the 2-epoch window
  slo.rotate();  // the all-bad epoch leaves the window
  EXPECT_EQ(slo.window_bad(), 0u);
  EXPECT_EQ(slo.window_total(), 10u);
}

TEST(SloTrackerTest, RecordAppliesWithTelemetryDisabled) {
  const bool prior = obs::telemetry_enabled();
  obs::set_telemetry_enabled(false);
  obs::SloOptions opts;
  opts.epoch_seconds = 3600.0;
  obs::SloTracker slo(opts);
  slo.record(1.0);
  EXPECT_EQ(slo.window_total(), 1u);  // SLO signal is always-on, like gauges
  obs::set_telemetry_enabled(prior);
}

}  // namespace
}  // namespace fsda
