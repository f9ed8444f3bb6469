// Tests for fsda::common -- RNG determinism and statistics, CSV handling,
// env parsing, thread pool and fork-join semantics, and the error macros.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "la/gemm.hpp"
#include "la/matrix.hpp"

namespace fsda::common {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double mean = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  mean /= 10000.0;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double mean = 0.0, m2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    mean += x;
    m2 += x * x;
  }
  mean /= n;
  m2 /= n;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(m2, 1.0, 0.05);
}

TEST(RngTest, UniformIndexCoversRangeWithoutBias) {
  Rng rng(3);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 14000; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 250);
}

TEST(RngTest, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), InvariantError);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(9);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0], 1000, 150);
  EXPECT_NEAR(counts[1], 3000, 250);
  EXPECT_NEAR(counts[3], 6000, 300);
}

TEST(RngTest, CategoricalRejectsBadWeights) {
  Rng rng(1);
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(rng.categorical(zero), InvariantError);
  std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.categorical(negative), InvariantError);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndComplete) {
  Rng rng(13);
  const auto picks = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 9u);
}

TEST(RngTest, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(13);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), InvariantError);
}

TEST(RngTest, SplitStreamsAreDecorrelated) {
  Rng parent(77);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(CsvTest, SplitHandlesQuotesAndEscapes) {
  const auto fields = split_csv_line(R"(a,"b,c","d""e",f)");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
  EXPECT_EQ(fields[3], "f");
}

TEST(CsvTest, EscapeRoundTrips) {
  EXPECT_EQ(escape_csv_field("plain"), "plain");
  EXPECT_EQ(escape_csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(escape_csv_field("q\"q"), "\"q\"\"q\"");
}

TEST(CsvTest, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "fsda_csv_test.csv").string();
  CsvTable table;
  table.header = {"name", "value"};
  table.rows = {{"alpha", "1.5"}, {"beta, with comma", "2"}};
  write_csv(path, table);
  const CsvTable loaded = read_csv(path);
  EXPECT_EQ(loaded.header, table.header);
  EXPECT_EQ(loaded.rows, table.rows);
  EXPECT_EQ(loaded.column_index("value"), 1u);
  EXPECT_THROW(static_cast<void>(loaded.column_index("missing")),
               ArgumentError);
  std::filesystem::remove(path);
}

TEST(CsvTest, ReadRejectsMissingFile) {
  EXPECT_THROW(read_csv("/nonexistent/path/file.csv"), IoError);
}

TEST(EnvTest, ParsesIntsAndBools) {
  ::setenv("FSDA_TEST_INT", "123", 1);
  ::setenv("FSDA_TEST_BOOL", "yes", 1);
  ::setenv("FSDA_TEST_BAD", "12x", 1);
  EXPECT_EQ(env_int("FSDA_TEST_INT", 0), 123);
  EXPECT_EQ(env_int("FSDA_TEST_MISSING_INT", 9), 9);
  EXPECT_TRUE(env_bool("FSDA_TEST_BOOL", false));
  EXPECT_FALSE(env_bool("FSDA_TEST_MISSING_BOOL", false));
  EXPECT_THROW(env_int("FSDA_TEST_BAD", 0), ArgumentError);
  ::unsetenv("FSDA_TEST_INT");
  ::unsetenv("FSDA_TEST_BOOL");
  ::unsetenv("FSDA_TEST_BAD");
}

TEST(ThreadPoolTest, SubmitReturnsResults) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw ArgumentError("boom"); });
  EXPECT_THROW(f.get(), ArgumentError);
}

TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> counts(257);
  parallel_for(257, [&](std::size_t i) { counts[i]++; });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForTest, PropagatesFirstException) {
  EXPECT_THROW(parallel_for(64,
                            [](std::size_t i) {
                              if (i == 13) throw NumericError("unlucky");
                            }),
               NumericError);
}

TEST(ParallelForTest, HandlesZeroIterations) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, NestedCallsRunInlineOnTheCallingWorker) {
  // A parallel_for issued from inside a pool worker must not re-enqueue on
  // a (possibly saturated) pool -- every worker blocking on futures only
  // other workers can drain is a deadlock.  The in_worker() guard instead
  // runs the nested range inline on the calling worker, which we observe
  // via the thread id of every nested iteration.
  EXPECT_FALSE(ThreadPool::in_worker());
  ThreadPool pool(1);
  auto fut = pool.submit([] {
    if (!ThreadPool::in_worker()) return false;
    const auto outer_id = std::this_thread::get_id();
    std::atomic<int> total{0};
    bool all_inline = true;
    parallel_for(64, [&](std::size_t) {
      if (std::this_thread::get_id() != outer_id) all_inline = false;
      total.fetch_add(1, std::memory_order_relaxed);
    });
    return all_inline && total.load() == 64;
  });
  EXPECT_TRUE(fut.get());
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ForkJoinTest, ExceptionInCallersChunkPropagatesAfterAllChunksRun) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> chunks_run{0};
  bool thrown_on_caller = false;
  EXPECT_THROW(pool.parallel_for_chunked(
                   64,
                   [&](std::size_t begin, std::size_t) {
                     chunks_run.fetch_add(1);
                     if (begin == 0) {
                       thrown_on_caller =
                           std::this_thread::get_id() == caller;
                       throw NumericError("caller chunk");
                     }
                   }),
               NumericError);
  EXPECT_TRUE(thrown_on_caller);
  // The caller still waited for the workers' chunks before rethrowing.
  EXPECT_EQ(chunks_run.load(), 4);
}

TEST(ForkJoinTest, ExceptionInWorkersChunkPropagatesToCaller) {
  ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> thrown_on_worker{false};
  EXPECT_THROW(pool.parallel_for_chunked(
                   64,
                   [&](std::size_t begin, std::size_t) {
                     if (begin == 48) {
                       thrown_on_worker =
                           std::this_thread::get_id() != caller;
                       throw ArgumentError("worker chunk");
                     }
                   }),
               ArgumentError);
  EXPECT_TRUE(thrown_on_worker.load());
  // The pool stays usable after a failed region.
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunked(64, [&](std::size_t b, std::size_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ForkJoinTest, ConcurrentCallersOnGlobalPoolEachCoverTheirRange) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kN = 1000;
  constexpr int kRounds = 200;
  std::vector<std::vector<std::atomic<int>>> counts(kCallers);
  for (auto& c : counts) c = std::vector<std::atomic<int>>(kN);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&counts, t] {
      for (int r = 0; r < kRounds; ++r) {
        parallel_for(kN, [&](std::size_t i) {
          counts[t][i].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& c : callers) c.join();
  for (std::size_t t = 0; t < kCallers; ++t) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[t][i].load(), kRounds)
          << "caller " << t << " index " << i;
    }
  }
}

TEST(ForkJoinTest, RegionNestedInCallersChunkRunsInlineOnCaller) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  EXPECT_FALSE(ThreadPool::in_worker());
  bool caller_marked = false;
  bool nested_inline = true;
  int nested_calls = 0;
  pool.parallel_for_chunked(12, [&](std::size_t begin, std::size_t) {
    if (begin != 0) return;  // chunk 0 is the caller's
    caller_marked = ThreadPool::in_worker();
    auto check = [&](std::size_t b, std::size_t e) {
      ++nested_calls;  // inline => single-threaded, no race
      if (b != 0 || e != 64 ||
          std::this_thread::get_id() != caller) {
        nested_inline = false;
      }
    };
    pool.parallel_for_chunked(64, check);
    parallel_for_chunked(64, check);  // the global pool, too
  });
  EXPECT_TRUE(caller_marked);
  EXPECT_TRUE(nested_inline);
  EXPECT_EQ(nested_calls, 2);
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ForkJoinTest, PoolWithoutWorkersRunsEverythingInline) {
  // The global pool of a 1-vCPU host: nproc - 1 = 0 workers.
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  bool on_caller = true;
  pool.parallel_for_chunked(100, [&](std::size_t b, std::size_t e) {
    chunks.emplace_back(b, e);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(std::size_t{0}, std::size_t{100}));
  EXPECT_TRUE(on_caller);
  auto fut = pool.submit([&] { return std::this_thread::get_id() == caller; });
  EXPECT_TRUE(fut.get());
}

la::Matrix filled(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

bool bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

TEST(ForkJoinTest, SplitGemmsAreBitwiseEqualToInlineRuns) {
  // Above the threshold the main thread splits rows across the global pool;
  // inside a pool worker the same call runs inline as one chunk.  Row
  // partitioning keeps every per-element accumulation chain, so the two
  // must agree to the bit.
  constexpr std::size_t m = 64, k = 128, n = 96;
  static_assert(m * k * n >= la::kParallelFlopThreshold);
  const la::Matrix a = filled(m, k, 1);
  const la::Matrix w = filled(k, n, 2);
  const la::Matrix dy = filled(m, n, 3);
  la::PackedB packed;
  packed.pack(w);
  const double bias_row[n] = {};
  const la::GemmEpilogue epi{bias_row, la::GemmAct::LeakyReLU, 0.2};

  la::Matrix out_split(m, n), dw_split = filled(k, n, 4);
  la::gemm_packed(a, packed, out_split, epi);
  la::gemm_grad_weights(a, dy, dw_split, /*accumulate=*/true);

  la::Matrix out_inline(m, n), dw_inline = filled(k, n, 4);
  ThreadPool pool(1);
  pool.submit([&] {
        ASSERT_TRUE(ThreadPool::in_worker());
        la::gemm_packed(a, packed, out_inline, epi);
        la::gemm_grad_weights(a, dy, dw_inline, /*accumulate=*/true);
      })
      .get();
  EXPECT_TRUE(bitwise_equal(out_split, out_inline));
  EXPECT_TRUE(bitwise_equal(dw_split, dw_inline));
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 1.0);
}

TEST(LoggingTest, SinkCapturesFilteredFormattedLines) {
  const LogLevel prior_level = log_level();
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&captured](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  set_log_level(LogLevel::Warn);

  FSDA_LOG_DEBUG << "dropped debug";
  FSDA_LOG_INFO << "dropped info " << 1;
  FSDA_LOG_WARN << "kept warn " << 2;
  FSDA_LOG_ERROR << "kept error";

  set_log_sink({});  // restore the stderr writer
  set_log_level(prior_level);

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::Warn);
  EXPECT_EQ(captured[1].first, LogLevel::Error);

  // Line format: <ISO-8601 UTC ts> <LEVEL> [tid <n>] <message>.
  const std::string& line = captured[0].second;
  ASSERT_GE(line.size(), 24u);
  EXPECT_EQ(line[4], '-');
  EXPECT_EQ(line[7], '-');
  EXPECT_EQ(line[10], 'T');
  EXPECT_EQ(line[13], ':');
  EXPECT_EQ(line[23], 'Z');
  EXPECT_NE(line.find(" WARN [tid "), std::string::npos);
  EXPECT_NE(line.find("kept warn 2"), std::string::npos);
  EXPECT_NE(captured[1].second.find(" ERROR [tid "), std::string::npos);

  // Off silences everything, including errors.
  set_log_sink([&captured](LogLevel level, const std::string& line_text) {
    captured.emplace_back(level, line_text);
  });
  set_log_level(LogLevel::Off);
  FSDA_LOG_ERROR << "silenced";
  set_log_sink({});
  set_log_level(prior_level);
  EXPECT_EQ(captured.size(), 2u);
}

TEST(ErrorTest, CheckMacroThrowsWithMessage) {
  try {
    FSDA_CHECK_MSG(1 == 2, "custom detail " << 99);
    FAIL() << "expected throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 99"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace fsda::common
