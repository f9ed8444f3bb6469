// Tests for the serving subsystem (src/serve/): the pure micro-batch
// sizing policy against exact oracles, wire-format round-trips and
// malformed-stream rejection, MPMC accounting on the sharded request
// queue, the model registry's publish/rollback handoff under concurrent
// readers, daemon admission control (typed sheds against the daemon's own
// SLO), the end-to-end integration run with a mid-flight model hot-swap, a
// lost-wakeup stress test, and a Unix-socket front-end smoke test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.hpp"
#include "core/cgan.hpp"
#include "core/model_registry.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "la/matrix.hpp"
#include "models/neural.hpp"
#include "serve/batch_policy.hpp"
#include "serve/daemon.hpp"
#include "serve/sharded_queue.hpp"
#include "serve/uds.hpp"
#include "serve/wire.hpp"

namespace fsda {
namespace {

using serve::Admission;
using serve::BatchPolicyOptions;
using serve::Frame;
using serve::FrameReader;
using serve::FrameType;
using serve::target_batch_rows;
using serve::WireError;

// ---------------------------------------------------------------------------
// Batch policy
// ---------------------------------------------------------------------------

TEST(BatchPolicyTest, LightLoadStaysAtMinimum) {
  const BatchPolicyOptions opt;  // min 1, max 64, low 0.5 ms, high 8 ms
  EXPECT_EQ(target_batch_rows(0, 0.0, opt), 1u);
  EXPECT_EQ(target_batch_rows(1, 0.0, opt), 1u);
  EXPECT_EQ(target_batch_rows(0, opt.wait_low_ms, opt), 1u);  // inclusive
}

TEST(BatchPolicyTest, SaturatedWaitsHitTheCap) {
  const BatchPolicyOptions opt;
  EXPECT_EQ(target_batch_rows(0, opt.wait_high_ms, opt), 64u);
  EXPECT_EQ(target_batch_rows(3, 1000.0, opt), 64u);
}

TEST(BatchPolicyTest, MidPressureInterpolatesLinearly) {
  const BatchPolicyOptions opt;
  // Halfway between low (0.5) and high (8.0): f = 0.5, so the target is
  // 1 + round(63 * 0.5) = 33.
  EXPECT_EQ(target_batch_rows(0, 4.25, opt), 33u);
  // A quarter of the way: 1 + round(63 * 0.25) = 17.
  EXPECT_EQ(target_batch_rows(0, 2.375, opt), 17u);
}

TEST(BatchPolicyTest, QueueDepthRaisesTargetBeforeWaitWindowReacts) {
  const BatchPolicyOptions opt;
  // Cold wait window, deep queue: drain the backlog (up to the cap).
  EXPECT_EQ(target_batch_rows(10, 0.0, opt), 10u);
  EXPECT_EQ(target_batch_rows(64, 0.0, opt), 64u);
  EXPECT_EQ(target_batch_rows(1000, 0.0, opt), 64u);
}

TEST(BatchPolicyTest, DegenerateRangesClampSafely) {
  BatchPolicyOptions opt;
  opt.min_batch_rows = 1;
  opt.max_batch_rows = 1;  // micro-batching disabled
  EXPECT_EQ(target_batch_rows(50, 100.0, opt), 1u);

  opt.min_batch_rows = 0;  // zero floor is bumped to 1
  opt.max_batch_rows = 8;
  EXPECT_EQ(target_batch_rows(0, 0.0, opt), 1u);

  opt.min_batch_rows = 4;
  opt.max_batch_rows = 4;
  EXPECT_EQ(target_batch_rows(0, 0.0, opt), 4u);
  EXPECT_EQ(target_batch_rows(100, 100.0, opt), 4u);
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(WireTest, MatrixFrameRoundTripsThroughBytewiseFeeds) {
  la::Matrix m(3, 4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m(r, c) = static_cast<double>(r) * 10.0 + static_cast<double>(c) + 0.25;
    }
  }
  std::vector<std::uint8_t> buf;
  serve::append_matrix_frame(buf, FrameType::Predict, 42, m);

  // Worst-case fragmentation: one byte per feed must still reassemble.
  FrameReader reader;
  Frame frame;
  for (std::size_t i = 0; i + 1 < buf.size(); ++i) {
    reader.feed(&buf[i], 1);
    EXPECT_FALSE(reader.next(frame)) << "frame completed early at byte " << i;
  }
  reader.feed(&buf[buf.size() - 1], 1);
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::Predict);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_FALSE(reader.bad());
  EXPECT_EQ(reader.buffered(), 0u);

  la::Matrix decoded;
  ASSERT_TRUE(serve::decode_matrix_payload(frame, decoded));
  ASSERT_EQ(decoded.rows(), 3u);
  ASSERT_EQ(decoded.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(decoded(r, c), m(r, c));
  }
}

TEST(WireTest, ErrorAndEmptyFramesRoundTrip) {
  std::vector<std::uint8_t> buf;
  serve::append_error_frame(buf, 7, WireError::ShedSlo, "busy");
  serve::append_empty_frame(buf, FrameType::Ping, 8);

  // Two frames in one feed: next() yields both, in order.
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::Error);
  EXPECT_EQ(frame.request_id, 7u);
  WireError code = WireError::None;
  std::string message;
  ASSERT_TRUE(serve::decode_error_payload(frame, code, message));
  EXPECT_EQ(code, WireError::ShedSlo);
  EXPECT_EQ(message, "busy");

  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.type, FrameType::Ping);
  EXPECT_EQ(frame.request_id, 8u);
  EXPECT_TRUE(frame.payload.empty());
  la::Matrix m;
  EXPECT_FALSE(serve::decode_matrix_payload(frame, m));  // wrong type
  EXPECT_FALSE(reader.next(frame));
  EXPECT_FALSE(reader.bad());
}

TEST(WireTest, TruncatedMatrixPayloadIsRejectedByDecode) {
  // Header claims 2x3 but carries only five doubles: structurally a valid
  // frame, semantically inconsistent -- decode must refuse it.
  std::vector<std::uint8_t> payload;
  const std::uint32_t rows = 2, cols = 3;
  payload.resize(8 + 5 * sizeof(double), 0);
  std::memcpy(payload.data(), &rows, 4);
  std::memcpy(payload.data() + 4, &cols, 4);
  std::vector<std::uint8_t> buf;
  serve::append_frame(buf, FrameType::Proba, 1, payload.data(),
                      payload.size());
  FrameReader reader;
  reader.feed(buf.data(), buf.size());
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  la::Matrix m;
  EXPECT_FALSE(serve::decode_matrix_payload(frame, m));
}

TEST(WireTest, OversizedAndUndersizedBodiesPoisonTheReader) {
  {
    FrameReader reader;
    const std::uint32_t huge = serve::kMaxFrameBody + 1;
    reader.feed(reinterpret_cast<const std::uint8_t*>(&huge), 4);
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.bad());
    // A poisoned reader never yields again, whatever arrives next.
    std::vector<std::uint8_t> ok;
    serve::append_empty_frame(ok, FrameType::Ping, 1);
    reader.feed(ok.data(), ok.size());
    EXPECT_FALSE(reader.next(frame));
  }
  {
    FrameReader reader;
    const std::uint32_t tiny = 3;  // below type byte + request id
    reader.feed(reinterpret_cast<const std::uint8_t*>(&tiny), 4);
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.bad());
  }
  {
    // Unknown frame type byte.
    std::vector<std::uint8_t> buf;
    serve::append_empty_frame(buf, FrameType::Ping, 1);
    buf[4] = 99;
    FrameReader reader;
    reader.feed(buf.data(), buf.size());
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.bad());
  }
}

// ---------------------------------------------------------------------------
// Sharded queue
// ---------------------------------------------------------------------------

TEST(ShardedQueueTest, DrainsAfterCloseAndRejectsNewPushes) {
  serve::ShardedQueue<int> q(4);
  EXPECT_EQ(q.shard_count(), 4u);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.depth(), 10u);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(11));

  std::vector<int> out;
  std::size_t total = 0;
  while (const std::size_t n = q.pop(out, 3)) total += n;
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(q.depth(), 0u);
  std::set<int> seen(out.begin(), out.end());
  EXPECT_EQ(seen.size(), 10u);  // every item exactly once
}

TEST(ShardedQueueTest, MpmcAccountingLosesAndDuplicatesNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  serve::ShardedQueue<int> q(8);

  std::vector<std::atomic<int>> seen(
      static_cast<std::size_t>(kProducers * kPerProducer));
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> got;
      while (true) {
        got.clear();
        if (q.pop(got, 7) == 0) break;
        for (int v : got) seen[static_cast<std::size_t>(v)].fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "item " << i << " lost or duplicated";
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(ShardedQueueTest, DepthNeverExceedsPushedMinusPoppedUnderRace) {
  // One producer and one consumer race 2M items through the queue while a
  // third thread samples depth().  Each push is counted BEFORE push() and
  // each pop AFTER try_pop(), and the sampler reads popped, then depth,
  // then pushed, so depth() <= pushed - popped must hold for every sample
  // if depth_ is raised before an item becomes poppable.  Raising it after
  // the item is visible lets the consumer subtract first, and the unsigned
  // counter wraps to ~2^64.
  constexpr std::size_t kItems = 2'000'000;
  serve::ShardedQueue<std::uint32_t> q(4);
  std::atomic<std::size_t> pushed{0};
  std::atomic<std::size_t> popped{0};
  std::atomic<bool> done{false};

  std::size_t samples = 0;
  std::size_t over = 0;
  std::size_t wrapped = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      const std::size_t p0 = popped.load();
      const std::size_t d = q.depth();
      const std::size_t u1 = pushed.load();
      ++samples;
      if (d >= (std::size_t{1} << 40)) ++wrapped;
      if (d > u1 - p0) ++over;
    }
  });
  std::thread consumer([&] {
    std::vector<std::uint32_t> got;
    got.reserve(64);
    while (popped.load() < kItems) {
      got.clear();
      const std::size_t n = q.try_pop(got, 64);
      popped.fetch_add(n);
    }
  });
  for (std::size_t i = 0; i < kItems; ++i) {
    pushed.fetch_add(1);
    EXPECT_TRUE(q.push(static_cast<std::uint32_t>(i)));
  }
  consumer.join();
  done.store(true);
  sampler.join();

  EXPECT_GT(samples, 0u);
  EXPECT_EQ(wrapped, 0u) << "of " << samples << " depth() samples";
  EXPECT_EQ(over, 0u) << "of " << samples << " depth() samples";
  EXPECT_EQ(q.depth(), 0u);
}

// ---------------------------------------------------------------------------
// Daemon fixture: the small synthetic drift problem from inference_test.
// ---------------------------------------------------------------------------

data::Dataset make_source(std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t n = 120, d = 12, k = 3;
  data::Dataset ds;
  ds.x = la::Matrix(n, d);
  ds.y.resize(n);
  ds.num_classes = k;
  for (std::size_t r = 0; r < n; ++r) {
    const auto label = static_cast<std::int64_t>(r % k);
    ds.y[r] = label;
    for (std::size_t c = 0; c < d; ++c) {
      ds.x(r, c) = rng.normal() + 0.8 * static_cast<double>(label) *
                                      (c % 2 == 0 ? 1.0 : -1.0);
    }
  }
  return ds;
}

data::Dataset make_target(std::uint64_t seed) {
  data::Dataset ds = make_source(seed);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    for (std::size_t c = 6; c < ds.num_features(); ++c) {
      ds.x(r, c) = 3.0 * ds.x(r, c) + 2.5;
    }
  }
  return ds;
}

core::FsGanPipeline make_trained_pipeline(std::uint64_t seed) {
  models::NeuralOptions nopt;
  nopt.hidden = {16};
  nopt.epochs = 6;
  core::CganOptions gopt;
  gopt.epochs = 4;
  gopt.hidden = {16};
  core::PipelineOptions popt;
  popt.monte_carlo_m = 2;
  core::FsGanPipeline pipeline(
      [nopt](std::uint64_t s) {
        return std::make_unique<models::MLPClassifier>(s, nopt);
      },
      [gopt](std::size_t inv, std::size_t var, std::uint64_t s) {
        return std::make_unique<core::ConditionalGAN>(inv, var, gopt, s);
      },
      popt, seed);
  pipeline.train(make_source(100 + seed), make_target(200 + seed));
  return pipeline;
}

/// Blocks the caller until one submitted request completes.
struct SyncWaiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  serve::ServeResult res;

  std::function<void(serve::ServeResult&&)> callback() {
    return [this](serve::ServeResult&& r) {
      std::lock_guard<std::mutex> lk(mu);
      res = std::move(r);
      done = true;
      cv.notify_one();
    };
  }
  serve::ServeResult wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
    done = false;
    return std::move(res);
  }
};

bool valid_distribution_rows(const la::Matrix& proba, std::size_t rows,
                             std::size_t classes) {
  if (proba.rows() != rows || proba.cols() != classes) return false;
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      if (!std::isfinite(proba(r, c)) || proba(r, c) < -1e-9) return false;
      sum += proba(r, c);
    }
    if (std::abs(sum - 1.0) > 1e-6) return false;
  }
  return true;
}

TEST(ServeDaemonTest, ServesSingleAndMultiRowRequests) {
  core::FsGanPipeline pipeline = make_trained_pipeline(1);
  serve::ServeDaemon daemon(pipeline, {});
  daemon.start();

  const la::Matrix test = make_target(301).x;
  SyncWaiter waiter;

  la::Matrix one(1, test.cols());
  for (std::size_t c = 0; c < test.cols(); ++c) one(0, c) = test(0, c);
  ASSERT_EQ(daemon.submit(one, 5, waiter.callback()), Admission::Accepted);
  serve::ServeResult r = waiter.wait();
  EXPECT_EQ(r.request_id, 5u);
  EXPECT_EQ(r.error, WireError::None);
  EXPECT_TRUE(valid_distribution_rows(r.proba, 1, 3));

  la::Matrix many(7, test.cols());
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t c = 0; c < test.cols(); ++c) many(i, c) = test(i, c);
  }
  ASSERT_EQ(daemon.submit(many, 6, waiter.callback()), Admission::Accepted);
  r = waiter.wait();
  EXPECT_EQ(r.error, WireError::None);
  EXPECT_TRUE(valid_distribution_rows(r.proba, 7, 3));

  daemon.stop();
  const serve::ServeDaemon::Stats s = daemon.stats();
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.batched_rows, 8u);

  // Post-stop submits are typed as shutdown sheds and never call back.
  EXPECT_EQ(daemon.submit(one, 7, waiter.callback()),
            Admission::ShuttingDown);
  EXPECT_EQ(serve::to_wire_error(Admission::ShuttingDown),
            WireError::ShuttingDown);
}

TEST(ServeDaemonTest, MalformedRequestsAnswerBadFrameSynchronously) {
  core::FsGanPipeline pipeline = make_trained_pipeline(2);
  serve::ServeDaemon daemon(pipeline, {});
  daemon.start();

  SyncWaiter waiter;
  la::Matrix wrong(1, 5);  // pipeline expects 12 features
  ASSERT_EQ(daemon.submit(wrong, 9, waiter.callback()), Admission::Accepted);
  const serve::ServeResult r = waiter.wait();
  EXPECT_EQ(r.request_id, 9u);
  EXPECT_EQ(r.error, WireError::BadFrame);
  daemon.stop();
  EXPECT_EQ(daemon.stats().failed, 1u);
  EXPECT_EQ(daemon.stats().completed, 0u);
}

TEST(ServeDaemonTest, ShedsTypedQueueFullWithoutInvokingCallback) {
  core::FsGanPipeline pipeline = make_trained_pipeline(3);
  serve::ServeOptions opt;
  opt.max_queue_depth = 0;  // every admission check sees a "full" queue
  serve::ServeDaemon daemon(pipeline, opt);
  daemon.start();

  const la::Matrix test = make_target(303).x;
  la::Matrix one(1, test.cols());
  for (std::size_t c = 0; c < test.cols(); ++c) one(0, c) = test(0, c);
  std::atomic<int> callbacks{0};
  EXPECT_EQ(daemon.submit(one, 1,
                          [&](serve::ServeResult&&) { ++callbacks; }),
            Admission::ShedQueueFull);
  EXPECT_EQ(serve::to_wire_error(Admission::ShedQueueFull),
            WireError::ShedQueueFull);
  daemon.stop();
  EXPECT_EQ(callbacks.load(), 0);
  EXPECT_EQ(daemon.stats().shed_queue_full, 1u);
  EXPECT_EQ(daemon.stats().accepted, 0u);
}

/// Options whose SLO shedding fires on the burn rate alone.
serve::ServeOptions slo_shedding_options() {
  serve::ServeOptions opt;
  opt.slo.latency_target_ms = 1e-9;  // every recorded batch is "bad"
  opt.shed_burn_rate = 1.0;
  opt.slo_shed_min_depth = 0;  // let the burn rate alone decide
  return opt;
}

/// Saturates the daemon's own SLO burn rate.
void poison_slo(serve::ServeDaemon& daemon) {
  for (int i = 0; i < 64; ++i) daemon.slo().record(10.0);
  ASSERT_GT(daemon.slo().error_budget_burn_rate(), 1.0);
}

TEST(ServeDaemonTest, ShedsTypedSloWhenBurnRateCrossesThreshold) {
  core::FsGanPipeline pipeline = make_trained_pipeline(4);
  serve::ServeDaemon daemon(pipeline, slo_shedding_options());
  poison_slo(daemon);
  daemon.start();

  const la::Matrix test = make_target(304).x;
  la::Matrix one(1, test.cols());
  for (std::size_t c = 0; c < test.cols(); ++c) one(0, c) = test(0, c);
  EXPECT_EQ(daemon.submit(one, 1, nullptr), Admission::ShedSlo);
  EXPECT_EQ(serve::to_wire_error(Admission::ShedSlo), WireError::ShedSlo);
  daemon.stop();
  EXPECT_EQ(daemon.stats().shed_slo, 1u);
}

TEST(ServeDaemonTest, PoisonedSloDoesNotShedAnotherDaemon) {
  // Each daemon owns its SLO tracker: one daemon's burned error budget
  // must not shed a second daemon's traffic, even on the same pipeline.
  core::FsGanPipeline pipeline = make_trained_pipeline(4);
  serve::ServeDaemon poisoned(pipeline, slo_shedding_options());
  poison_slo(poisoned);
  // A 1 s target the tiny pipeline always meets keeps the healthy
  // daemon's own burn rate at zero.
  serve::ServeOptions healthy_opt = slo_shedding_options();
  healthy_opt.slo.latency_target_ms = 1000.0;
  serve::ServeDaemon healthy(pipeline, healthy_opt);
  poisoned.start();
  healthy.start();

  const la::Matrix test = make_target(304).x;
  la::Matrix one(1, test.cols());
  for (std::size_t c = 0; c < test.cols(); ++c) one(0, c) = test(0, c);
  EXPECT_EQ(poisoned.submit(one, 1, nullptr), Admission::ShedSlo);
  SyncWaiter waiter;
  ASSERT_EQ(healthy.submit(one, 2, waiter.callback()), Admission::Accepted);
  const serve::ServeResult r = waiter.wait();
  EXPECT_EQ(r.error, WireError::None);
  EXPECT_TRUE(valid_distribution_rows(r.proba, 1, 3));
  poisoned.stop();
  healthy.stop();
  EXPECT_EQ(poisoned.stats().shed_slo, 1u);
  EXPECT_EQ(healthy.stats().shed_slo, 0u);
  EXPECT_EQ(healthy.stats().completed, 1u);
  EXPECT_EQ(healthy.slo().window_total(), 1u);
}

TEST(ServeDaemonTest, ConcurrentClientsWithMidRunHotSwapSeeNoBadResponse) {
  core::FsGanPipeline pipeline = make_trained_pipeline(5);
  ASSERT_TRUE(pipeline.serving_plans_active());
  // A second published generation for the swapper to roll back and forth to.
  const core::CandidateOutcome second = pipeline.build_candidate_generation(
      make_target(215), pipeline.options().fs);
  ASSERT_NE(second.generation, nullptr) << second.reason;
  pipeline.promote_generation(second.generation);
  serve::ServeDaemon daemon(pipeline, {});
  daemon.start();

  const la::Matrix test = make_target(305).x;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 120;
  std::atomic<std::uint64_t> ok{0}, bad{0}, shed{0};

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      SyncWaiter waiter;
      la::Matrix x(1 + t % 3, test.cols());  // mixed request sizes
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        for (std::size_t r = 0; r < x.rows(); ++r) {
          const std::size_t src = (t * 37 + i + r) % test.rows();
          for (std::size_t c = 0; c < test.cols(); ++c) {
            x(r, c) = test(src, c);
          }
        }
        const Admission verdict =
            daemon.submit(x, (t << 32) | i, waiter.callback());
        if (verdict != Admission::Accepted) {
          ++shed;
          continue;
        }
        const serve::ServeResult res = waiter.wait();
        const bool good = res.error == WireError::None &&
                          res.request_id == ((t << 32) | i) &&
                          valid_distribution_rows(res.proba, x.rows(), 3);
        if (good) ++ok; else ++bad;
      }
    });
  }

  // Hot-swapper: each rollback swaps the active and previous generations;
  // worker slots must rebind mid-stream with zero invalid responses.
  std::atomic<bool> stop_swapper{false};
  std::uint64_t swaps = 0;
  std::thread swapper([&] {
    while (!stop_swapper.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_TRUE(pipeline.registry().rollback());
      ++swaps;
    }
  });
  for (auto& t : clients) t.join();
  stop_swapper.store(true);
  swapper.join();
  daemon.stop();

  EXPECT_GE(swaps, 1u);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(shed.load(), 0u);  // closed loop never fills the default queue
  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);
  const serve::ServeDaemon::Stats s = daemon.stats();
  EXPECT_EQ(s.completed, kClients * kRequestsPerClient);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_GE(s.batched_rows, s.batches);
}

TEST(ServeDaemonTest, NoRequestWaitsWhileAWorkerIsIdle) {
  // Two closed-loop producers against two workers: at most two requests
  // are ever in flight, so every request has an idle worker the moment it
  // is queued.  A reply that takes longer than the deadline means a worker
  // slept through a push (a lost wakeup).
  core::FsGanPipeline pipeline = make_trained_pipeline(7);
  serve::ServeOptions opt;
  opt.workers = 2;
  serve::ServeDaemon daemon(pipeline, opt);
  daemon.start();

  const la::Matrix test = make_target(307).x;
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kRequests = 10000;
  constexpr auto kDeadline = std::chrono::seconds(2);
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t answered = 0;  ///< requests answered so far
  };
  // Waiters outlive the daemon, so a late reply never lands on a dead one.
  std::vector<Waiter> waiters(kProducers);
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> sheds{0};
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Waiter& w = waiters[t];
      la::Matrix one(1, test.cols());
      for (std::uint64_t i = 0; i < kRequests; ++i) {
        const std::size_t src = (t * 53 + i) % test.rows();
        for (std::size_t c = 0; c < test.cols(); ++c) one(0, c) = test(src, c);
        const Admission verdict =
            daemon.submit(one, i, [&w](serve::ServeResult&&) {
              std::lock_guard<std::mutex> lk(w.mu);
              ++w.answered;
              w.cv.notify_one();
            });
        if (verdict != Admission::Accepted) {
          ++sheds;
          return;
        }
        std::unique_lock<std::mutex> lk(w.mu);
        if (!w.cv.wait_for(lk, kDeadline, [&] { return w.answered > i; })) {
          ++timeouts;
          return;
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  daemon.stop();

  EXPECT_EQ(timeouts.load(), 0u) << "a request waited while a worker idled";
  EXPECT_EQ(sheds.load(), 0u);
  EXPECT_EQ(daemon.stats().completed, kProducers * kRequests);
  EXPECT_EQ(daemon.stats().failed, 0u);
}

// ---------------------------------------------------------------------------
// Model registry handoff
// ---------------------------------------------------------------------------

TEST(ModelRegistryStressTest, PublishAndRollbackRaceActiveReaders) {
  // One writer publishes, rolls back and retires while readers snapshot
  // the active generation.  Every field the writer set before publishing
  // must be visible through any snapshot (the handoff orders it), and a
  // snapshot must stay intact while the registry moves on.
  core::ModelRegistry registry;
  constexpr std::uint64_t kPublishes = 20000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0}, torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // At least one read after the writer finishes, however late the
      // reader starts.
      bool last = false;
      while (!last) {
        last = done.load();
        const core::GenerationPtr g = registry.active();
        if (g == nullptr) continue;
        ++reads;
        if (g->validation_accuracy != static_cast<double>(g->id) ||
            g->provenance != "gen" + std::to_string(g->id)) {
          ++torn;
        }
      }
    });
  }
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    auto gen = std::make_shared<core::ModelGeneration>();
    // The writer is alone, so the next id is known before publish.
    gen->validation_accuracy = static_cast<double>(i);
    gen->provenance = "gen" + std::to_string(i);
    EXPECT_EQ(registry.publish(std::move(gen)), i);
    if (i % 7 == 0) {
      EXPECT_TRUE(registry.rollback());
    }
    if (i % 11 == 0) registry.retire_previous();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(registry.published_total(), kPublishes);
}

// ---------------------------------------------------------------------------
// Unix-socket front-end
// ---------------------------------------------------------------------------

TEST(UdsServerTest, PingPredictErrorAndShutdownOverTheSocket) {
  core::FsGanPipeline pipeline = make_trained_pipeline(6);
  serve::ServeDaemon daemon(pipeline, {});
  daemon.start();
  const std::string path =
      "/tmp/fsda_serve_test_" + std::to_string(::getpid()) + ".sock";
  serve::UdsServer server(daemon, path);
  ASSERT_TRUE(server.start());

  serve::UdsClient client;
  ASSERT_TRUE(client.connect(path));
  EXPECT_TRUE(client.ping());

  const la::Matrix test = make_target(306).x;
  la::Matrix x(2, test.cols());
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < test.cols(); ++c) x(r, c) = test(r, c);
  }
  la::Matrix proba;
  WireError error = WireError::None;
  ASSERT_TRUE(client.predict(x, proba, error));
  EXPECT_TRUE(valid_distribution_rows(proba, 2, 3));

  // Feature-width mismatch comes back as a typed BadFrame error.
  la::Matrix wrong(1, 3);
  EXPECT_FALSE(client.predict(wrong, proba, error));
  EXPECT_EQ(error, WireError::BadFrame);

  EXPECT_FALSE(server.shutdown_requested());
  client.request_shutdown();
  for (int i = 0; i < 200 && !server.shutdown_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(server.shutdown_requested());

  client.close();
  server.stop();
  daemon.stop();
  EXPECT_EQ(daemon.stats().completed, 1u);  // the good predict
  EXPECT_EQ(daemon.stats().failed, 1u);     // the feature-width mismatch
}

}  // namespace
}  // namespace fsda
