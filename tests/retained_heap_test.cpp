// Retained-heap and peak-heap regression tests: a trained model keeps only
// what it serves, and a call holds only a row block of scratch while it runs.
// Training scratch belongs to fit() and scoring scratch to the scoring call
// (DESIGN.md §7), so neither a large scoring call nor a second trained
// pipeline may leave batch-sized buffers behind on the heap, and a scoring
// call or a fit's holdout check may not size its scratch by its row count.
// What remains after a call is measured with glibc's mallinfo2() in-use
// byte counts; the high-water mark during a call, with a counting global
// operator new/delete defined below; and the pages a training phase hands
// back to the kernel, with RssAnon from /proc/self/status.  All are skipped
// off glibc and under AddressSanitizer/ThreadSanitizer, whose allocators
// glibc does not see.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/autoencoder.hpp"
#include "core/cgan.hpp"
#include "core/pipeline.hpp"
#include "core/vae.hpp"
#include "data/dataset.hpp"
#include "la/matrix.hpp"
#include "models/neural.hpp"
#include "nn/layer.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FSDA_HEAP_PROBE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FSDA_HEAP_PROBE 0
#endif
#endif
#if !defined(FSDA_HEAP_PROBE) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#define FSDA_HEAP_PROBE 1
#include <malloc.h>
#endif
#if !defined(FSDA_HEAP_PROBE)
#define FSDA_HEAP_PROBE 0
#endif

namespace {
// Bytes held by live operator-new blocks (usable sizes, so a block counts
// the same when it is freed) and their high-water mark since the last
// reset_heap_peak().
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};
}  // namespace

#if FSDA_HEAP_PROBE
// Counting replacements of the global allocation functions.  The array,
// nothrow and sized forms of the standard library forward to these two.
void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t live =
      g_live_bytes.fetch_add(malloc_usable_size(p),
                             std::memory_order_relaxed) +
      malloc_usable_size(p);
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#endif

namespace fsda {
namespace {

constexpr std::size_t kScoreRows = 4096;
constexpr double kMiB = 1024.0 * 1024.0;

/// Bytes the allocator currently has handed out, or 0 without a probe:
/// arena chunks in use (uordblks) plus mmapped chunks (hblkhd), where glibc
/// puts single blocks above its mmap threshold -- a 4096-row activation.
std::size_t heap_in_use() {
#if FSDA_HEAP_PROBE
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

/// Signed heap growth since `before`, in MiB; recorded as the test's
/// `heap_growth_mib` property (see --gtest_output=xml).
double heap_growth_mib(std::size_t before) {
  const double growth =
      (static_cast<double>(heap_in_use()) - static_cast<double>(before)) /
      kMiB;
  ::testing::Test::RecordProperty("heap_growth_mib", std::to_string(growth));
  return growth;
}

/// Restarts the high-water mark at the bytes live now, and returns them.
std::size_t reset_heap_peak() {
  const std::size_t live = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(live, std::memory_order_relaxed);
  return live;
}

/// High-water mark since reset_heap_peak() returned `base`, in MiB above
/// it; recorded as the test's `<label>_peak_mib` property.
double heap_peak_mib(std::size_t base, const std::string& label) {
  const double peak =
      static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed) -
                          base) /
      kMiB;
  ::testing::Test::RecordProperty(label + "_peak_mib", std::to_string(peak));
  return peak;
}

#define SKIP_WITHOUT_HEAP_PROBE()                                      \
  if (!FSDA_HEAP_PROBE) {                                              \
    GTEST_SKIP() << "needs glibc mallinfo2 and no ASan/TSan allocator"; \
  }

la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         common::Rng& rng) {
  la::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Labelled rows whose second half of the features drifts in the target.
data::Dataset make_data(std::uint64_t seed, std::size_t rows, bool drifted) {
  constexpr std::size_t kFeatures = 24;
  constexpr std::size_t kClasses = 3;
  common::Rng rng(seed);
  data::Dataset ds;
  ds.x = la::Matrix(rows, kFeatures);
  ds.y.resize(rows);
  ds.num_classes = kClasses;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto label = static_cast<std::int64_t>(r % kClasses);
    ds.y[r] = label;
    for (std::size_t c = 0; c < kFeatures; ++c) {
      double v = rng.normal() + 0.8 * static_cast<double>(label) *
                                    (c % 2 == 0 ? 1.0 : -1.0);
      if (drifted && c >= kFeatures / 2) v = 3.0 * v + 2.5;
      ds.x(r, c) = v;
    }
  }
  return ds;
}

TEST(RetainedHeapTest, CganReconstructKeepsNoScratch) {
  SKIP_WITHOUT_HEAP_PROBE();
  constexpr std::size_t kInv = 8;
  constexpr std::size_t kVar = 4;
  common::Rng rng(31);
  const la::Matrix x_inv = random_matrix(128, kInv, rng);
  const la::Matrix x_var = random_matrix(128, kVar, rng);
  std::vector<std::int64_t> labels(128);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % 2);
  }
  core::CganOptions opt;
  opt.hidden = {32, 32};
  opt.epochs = 2;
  core::ConditionalGAN gan(kInv, kVar, opt, 7);
  gan.fit(x_inv, x_var, labels, 2);
  const la::Matrix big = random_matrix(kScoreRows, kInv, rng);

  const std::size_t before = heap_in_use();
  {
    const la::Matrix out = gan.reconstruct(big);
    ASSERT_EQ(out.rows(), kScoreRows);
  }
  EXPECT_LT(heap_growth_mib(before), 1.0)
      << "reconstruct() left batch-sized scratch on the heap";
}

// A scoring call holds one row block of scratch while it runs
// (nn::forward_rows_into), so a 4096-row reconstruct() peaks at its output
// and its noise plus that block.  Run over all rows at once, the same calls
// held every layer's 4096-row output: 4.6-9.2 MiB above the baseline here.
TEST(PeakHeapTest, ReconstructPeaksOneRowBlockAboveItsOutput) {
  SKIP_WITHOUT_HEAP_PROBE();
  constexpr std::size_t kInv = 8;
  constexpr std::size_t kVar = 4;
  constexpr std::size_t kNoise = 4;
  common::Rng rng(59);
  const la::Matrix x_inv = random_matrix(128, kInv, rng);
  const la::Matrix x_var = random_matrix(128, kVar, rng);
  std::vector<std::int64_t> labels(128);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % 2);
  }
  const la::Matrix big = random_matrix(kScoreRows, kInv, rng);
  const auto expect_one_block = [&](core::Reconstructor& model,
                                    std::size_t noise_cols,
                                    const std::string& label) {
    model.fit(x_inv, x_var, labels, 2);
    (void)model.reconstruct(x_inv);  // warms process-wide structures
    const std::size_t base = reset_heap_peak();
    {
      const la::Matrix out = model.reconstruct(big);
      ASSERT_EQ(out.rows(), kScoreRows);
    }
    const double kept_mib =
        static_cast<double>(kScoreRows * (kVar + noise_cols) *
                            sizeof(double)) /
        kMiB;
    EXPECT_LT(heap_peak_mib(base, label), kept_mib + 1.0)
        << label << " reconstruct() held more than one row block of "
        << "scratch above its output and noise (" << kept_mib << " MiB)";
  };

  core::CganOptions gan_opt;
  gan_opt.hidden = {32, 32};
  gan_opt.noise_dim = kNoise;
  gan_opt.epochs = 2;
  core::ConditionalGAN gan(kInv, kVar, gan_opt, 7);
  expect_one_block(gan, kNoise, "cgan");

  core::VaeOptions vae_opt;
  vae_opt.hidden = {32, 32};
  vae_opt.latent_dim = kNoise;
  vae_opt.epochs = 2;
  core::VaeReconstructor vae(kInv, kVar, vae_opt, 7);
  expect_one_block(vae, kNoise, "vae");

  core::AutoencoderOptions ae_opt;
  ae_opt.hidden = {32, 32};
  ae_opt.epochs = 2;
  core::AutoencoderReconstructor ae(kInv, kVar, ae_opt, 7);
  expect_one_block(ae, 0, "autoencoder");
}

// The plateau holdout runs through the training workspace in blocks of at
// most the fit's batch, so a holdout larger than the batch does not grow the
// generator's step buffers: the fit peaks no higher than the same fit with a
// holdout of batch size, apart from the larger holdout's own rows.  Scored
// in one pass, the 256-row holdout grew those buffers by ~3 MiB here.
TEST(PeakHeapTest, CganHoldoutLargerThanBatchPeaksNoHigher) {
  SKIP_WITHOUT_HEAP_PROBE();
  constexpr std::size_t kInv = 8;
  constexpr std::size_t kVar = 4;
  constexpr std::size_t kNoise = 4;
  constexpr std::size_t kClasses = 2;
  constexpr std::size_t kBatch = 64;
  // Up to 511 training rows the holdout is every row.
  constexpr std::size_t kLargeHoldout = 256;
  common::Rng rng(61);
  const la::Matrix inv_large = random_matrix(kLargeHoldout, kInv, rng);
  const la::Matrix var_large = random_matrix(kLargeHoldout, kVar, rng);
  std::vector<std::int64_t> labels_large(kLargeHoldout);
  for (std::size_t i = 0; i < labels_large.size(); ++i) {
    labels_large[i] = static_cast<std::int64_t>(i % kClasses);
  }
  std::vector<std::size_t> first_batch(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) first_batch[i] = i;
  const la::Matrix inv_batch = inv_large.select_rows(first_batch);
  const la::Matrix var_batch = var_large.select_rows(first_batch);
  const std::vector<std::int64_t> labels_batch(
      labels_large.begin(), labels_large.begin() + kBatch);

  core::CganOptions opt;
  opt.hidden = {256, 256};
  opt.noise_dim = kNoise;
  opt.batch_size = kBatch;
  opt.epochs = 3;
  const auto fit_peak_mib = [&](const la::Matrix& x_inv,
                                const la::Matrix& x_var,
                                const std::vector<std::int64_t>& labels,
                                const std::string& label) {
    const std::size_t base = reset_heap_peak();
    {
      core::ConditionalGAN gan(kInv, kVar, opt, 7);
      gan.fit(x_inv, x_var, labels, kClasses);
    }
    return heap_peak_mib(base, label);
  };
  // The first fit warms every process-wide structure the fit touches.
  fit_peak_mib(inv_batch, var_batch, labels_batch, "warm_up");
  const double batch_holdout =
      fit_peak_mib(inv_batch, var_batch, labels_batch, "batch_holdout");
  const double large_holdout =
      fit_peak_mib(inv_large, var_large, labels_large, "large_holdout");
  // The extra rows' own fit-local matrices: the holdout's noise and output
  // (its input and target are views of the training rows), the one-hot
  // labels and the shuffle order; plus 64 KiB of allocator rounding.
  const double extra_rows_mib =
      static_cast<double>((kLargeHoldout - kBatch) *
                          ((kNoise + kVar + kClasses) * sizeof(double) +
                           sizeof(std::size_t))) /
          kMiB +
      1.0 / 16.0;
  EXPECT_LE(large_holdout, batch_holdout + extra_rows_mib)
      << "a holdout larger than the batch grew the fit's step buffers";
}

// A fitted CGAN keeps its weights, not its gradient buffers: nothing reads
// Parameter::grad once fit() returns, and holding it would double what each
// generation's networks pin.
TEST(RetainedHeapTest, FittedCganKeepsNoGradients) {
  SKIP_WITHOUT_HEAP_PROBE();
  constexpr std::size_t kInv = 32;
  constexpr std::size_t kVar = 40;
  constexpr std::size_t kHidden = 128;
  constexpr std::size_t kClasses = 2;
  common::Rng rng(47);
  const la::Matrix x_inv = random_matrix(128, kInv, rng);
  const la::Matrix x_var = random_matrix(128, kVar, rng);
  std::vector<std::int64_t> labels(128);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i % kClasses);
  }
  core::CganOptions opt;
  opt.hidden = {kHidden, kHidden};
  opt.epochs = 2;
  // The first fit warms every process-wide structure the fit touches.
  core::ConditionalGAN(kInv, kVar, opt, 5).fit(x_inv, x_var, labels,
                                               kClasses);

  const std::size_t before = heap_in_use();
  core::ConditionalGAN gan(kInv, kVar, opt, 7);
  gan.fit(x_inv, x_var, labels, kClasses);
  const double growth = heap_growth_mib(before);

  std::size_t weight_count = 0;
  for (const nn::Parameter* p : gan.generator_network()->parameters()) {
    EXPECT_EQ(p->grad.size(), 0u) << "generator gradient kept after fit";
    weight_count += p->value.size();
  }
  // Discriminator: [X_inv, X_var, Y] -> hidden -> hidden -> 1.
  const std::size_t d_in = kInv + kVar + kClasses;
  weight_count += d_in * kHidden + kHidden + kHidden * kHidden + kHidden +
                  kHidden + 1;
  const double weights_mib =
      static_cast<double>(weight_count * sizeof(double)) / kMiB;
  // Weights plus their gradients would be 2x; allow a quarter for the
  // batch-norm running statistics, history and allocator slack.
  EXPECT_LT(growth, 1.25 * weights_mib)
      << "a fitted CGAN kept its gradient buffers (" << weights_mib
      << " MiB of weights)";
}

/// Weights of the generator-shaped network the VAE decoder and the
/// autoencoder both use: a skip Linear in -> out in parallel with an MLP
/// in -> hidden -> hidden -> out.
std::size_t generator_shaped_weights(std::size_t in, std::size_t hidden,
                                     std::size_t out) {
  return in * hidden + hidden + hidden * hidden + hidden + hidden * out +
         out + in * out + out;
}

// A fitted VAE or autoencoder keeps only the weights reconstruct() runs:
// the VAE's encoder is fit-local, and neither keeps gradient buffers.
TEST(RetainedHeapTest, FittedVaeAndAutoencoderKeepOnlyServingWeights) {
  SKIP_WITHOUT_HEAP_PROBE();
  constexpr std::size_t kInv = 32;
  constexpr std::size_t kVar = 40;
  constexpr std::size_t kHidden = 128;
  constexpr std::size_t kLatent = 12;
  common::Rng rng(53);
  const la::Matrix x_inv = random_matrix(128, kInv, rng);
  const la::Matrix x_var = random_matrix(128, kVar, rng);
  const std::vector<std::int64_t> labels(128, 0);
  // The first fit of each kind warms every process-wide structure it
  // touches; weights plus their gradients would be 2x, and the VAE's
  // encoder about as much again, so a quarter covers allocator slack.
  const auto expect_keeps_only = [&](const auto& fit_one,
                                     std::size_t serving_weights,
                                     const char* model) {
    fit_one(5);
    const std::size_t before = heap_in_use();
    const auto fitted = fit_one(7);
    const double growth = heap_growth_mib(before);
    const double weights_mib =
        static_cast<double>(serving_weights * sizeof(double)) / kMiB;
    EXPECT_LT(growth, 1.25 * weights_mib)
        << "a fitted " << model << " kept more than its serving weights ("
        << weights_mib << " MiB)";
  };

  core::VaeOptions vae_opt;
  vae_opt.hidden = {kHidden, kHidden};
  vae_opt.latent_dim = kLatent;
  vae_opt.epochs = 2;
  expect_keeps_only(
      [&](std::uint64_t seed) {
        auto vae = std::make_unique<core::VaeReconstructor>(kInv, kVar,
                                                            vae_opt, seed);
        vae->fit(x_inv, x_var, labels, 1);
        return vae;
      },
      generator_shaped_weights(kInv + kLatent, kHidden, kVar), "VAE");

  core::AutoencoderOptions ae_opt;
  ae_opt.hidden = {kHidden, kHidden};
  ae_opt.epochs = 2;
  expect_keeps_only(
      [&](std::uint64_t seed) {
        auto ae = std::make_unique<core::AutoencoderReconstructor>(
            kInv, kVar, ae_opt, seed);
        ae->fit(x_inv, x_var, labels, 1);
        return ae;
      },
      generator_shaped_weights(kInv, kHidden, kVar), "autoencoder");
}

TEST(RetainedHeapTest, MlpPredictProbaKeepsNoScratch) {
  SKIP_WITHOUT_HEAP_PROBE();
  constexpr std::size_t kFeatures = 24;
  common::Rng rng(37);
  const la::Matrix x = random_matrix(256, kFeatures, rng);
  std::vector<std::int64_t> y(256);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<std::int64_t>(i % 3);
  }
  models::NeuralOptions opt;
  opt.epochs = 2;
  models::MLPClassifier clf(11, opt);
  clf.fit(x, y, 3, {});
  const la::Matrix big = random_matrix(kScoreRows, kFeatures, rng);

  const std::size_t before = heap_in_use();
  {
    const la::Matrix proba = clf.predict_proba(big);
    ASSERT_EQ(proba.rows(), kScoreRows);
  }
  EXPECT_LT(heap_growth_mib(before), 1.0)
      << "predict_proba() left batch-sized scratch on the heap";
}

core::FsGanPipeline make_pipeline(std::uint64_t seed) {
  models::NeuralOptions nopt;
  nopt.hidden = {32};
  nopt.epochs = 2;
  core::CganOptions gopt;
  gopt.epochs = 2;
  gopt.hidden = {64, 64};
  return core::FsGanPipeline(
      [nopt](std::uint64_t s) {
        return std::make_unique<models::MLPClassifier>(s, nopt);
      },
      [gopt](std::size_t inv, std::size_t var, std::uint64_t s) {
        return std::make_unique<core::ConditionalGAN>(inv, var, gopt, s);
      },
      core::PipelineOptions{}, seed);
}

// What a trained pipeline pins: its scaled source, the classifier and the
// published generation (reconstructor weights, compiled plans, drift
// reference).  The reconstructed views the classifier trains on are 2000
// rows each.  While the models kept their scratch as members, the second
// pipeline raised the heap by 10.4 MiB; with fit- and call-local scratch it
// raises it by 0.67 MiB (x86-64, glibc 2.36).
TEST(RetainedHeapTest, SecondTrainedPipelinePinsOnlyWhatItServes) {
  SKIP_WITHOUT_HEAP_PROBE();
  constexpr std::size_t kSourceRows = 2000;
  const data::Dataset source = make_data(41, kSourceRows, false);
  const data::Dataset shots = make_data(43, 60, true);
  // The first pipeline warms every process-wide structure (metrics
  // registry, thread pool, lazily created statics).
  core::FsGanPipeline first = make_pipeline(3);
  first.train(source, shots);

  const std::size_t before = heap_in_use();
  core::FsGanPipeline second = make_pipeline(5);
  second.train(source, shots);
  ASSERT_TRUE(second.is_trained());
  EXPECT_LT(heap_growth_mib(before), 2.5)
      << "a trained pipeline kept training or scoring scratch";
}

/// Anonymous resident memory of the process in MiB (RssAnon in
/// /proc/self/status): heap arenas, mmapped blocks and touched thread
/// stacks, free or not; 0 where the file cannot be read.
double rss_anon_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::stod(line.substr(8)) / 1024.0;  // the line is in kB
    }
  }
  return 0.0;
}

/// Runs a cold re-adaptation of `pipeline` to `shots` on a fresh thread and
/// joins it, as the drift worker does; returns the candidate.
core::CandidateOutcome cold_refit_on_a_thread(core::FsGanPipeline& pipeline,
                                              const data::Dataset& shots) {
  core::CandidateOutcome out;
  std::thread worker([&] {
    out = pipeline.build_candidate_generation(shots, pipeline.options().fs);
  });
  worker.join();
  return out;
}

// A refit on another thread allocates from a malloc arena of its own, so it
// cannot reuse the pages that set-up freed on the main thread: unless set-up
// hands them back, the process holds both phases' high-water pages at once.
// train() and build_candidate_generation() each return their freed pages to
// the kernel (common::release_free_heap), so after either the process keeps
// little more than what the pipeline and its candidate pin.
TEST(RetainedHeapTest, ColdRefitOnAWorkerThreadReturnsItsPages) {
  SKIP_WITHOUT_HEAP_PROBE();
  const data::Dataset source = make_data(41, 2000, false);
  const data::Dataset shots = make_data(43, 60, true);
  const data::Dataset drifted = make_data(45, 60, true);
  // The first pipeline warms every process-wide structure.
  core::FsGanPipeline first = make_pipeline(3);
  first.train(source, shots);
#if FSDA_HEAP_PROBE
  malloc_trim(0);  // start from a heap that holds no free pages
#endif
  const double before = rss_anon_mib();
  core::FsGanPipeline second = make_pipeline(5);
  second.train(source, shots);
  const double after_train = rss_anon_mib();
  const core::CandidateOutcome candidate =
      cold_refit_on_a_thread(second, drifted);
  ASSERT_NE(candidate.generation, nullptr) << candidate.reason;
  const double after_refit = rss_anon_mib();
  ::testing::Test::RecordProperty("train_rss_anon_growth_mib",
                                  std::to_string(after_train - before));
  ::testing::Test::RecordProperty("refit_rss_anon_growth_mib",
                                  std::to_string(after_refit - after_train));
  // x86-64, glibc 2.36: set-up grows RssAnon by 0.6 MiB and the refit by
  // 0.65 MiB.  Without the release at train()'s return set-up leaves
  // 3.6-4.0 MiB resident; without the one at the refit's return the refit
  // leaves 2.66 MiB.
  EXPECT_LT(after_train - before, 2.0)
      << "set-up kept its freed pages resident";
  EXPECT_LT(after_refit - after_train, 1.5)
      << "the refit kept its freed pages resident in its thread's arena";
}

// The cold refit's live-heap high-water mark above what the trained pipeline
// holds: the F-node search's inputs and statistics, the reconstructor's
// training footprint (networks, Adam moments, sentinel snapshot, packs and
// step buffers) and the candidate generation it returns.  The bound is
// 1.25x the 2.20 MiB measured when it was set (x86-64, glibc 2.36), so a
// cut to the refit's footprint shows here as a lower number.
TEST(PeakHeapTest, ColdRefitPeakIsPinned) {
  SKIP_WITHOUT_HEAP_PROBE();
  const data::Dataset source = make_data(41, 2000, false);
  const data::Dataset shots = make_data(43, 60, true);
  const data::Dataset drifted = make_data(45, 60, true);
  core::FsGanPipeline pipeline = make_pipeline(5);
  pipeline.train(source, shots);
  // The first refit warms every process-wide structure the refit touches.
  (void)pipeline.build_candidate_generation(drifted, pipeline.options().fs);
  const std::size_t base = reset_heap_peak();
  {
    const core::CandidateOutcome candidate =
        pipeline.build_candidate_generation(drifted, pipeline.options().fs);
    ASSERT_NE(candidate.generation, nullptr) << candidate.reason;
  }
  EXPECT_LT(heap_peak_mib(base, "cold_refit"), 1.25 * 2.20)
      << "the cold refit's live heap grew past its pinned high-water mark";
}

/// A CGAN that restarts the live-heap high-water mark as its fit returns.
class PeakResettingCgan : public core::ConditionalGAN {
 public:
  using core::ConditionalGAN::ConditionalGAN;
  void fit(const la::Matrix& x_inv, const la::Matrix& x_var,
           const std::vector<std::int64_t>& labels,
           std::size_t num_classes) override {
    core::ConditionalGAN::fit(x_inv, x_var, labels, num_classes);
    (void)reset_heap_peak();
  }
};

/// An MLP that, as its fit begins, stores in `*peak_mib` the high-water mark
/// since the last reset above the bytes live then (`x_train`, `y_train` and
/// what the pipeline already held).
class PeakReadingMlp : public models::MLPClassifier {
 public:
  PeakReadingMlp(std::uint64_t seed, models::NeuralOptions options,
                 double* peak_mib)
      : models::MLPClassifier(seed, options), peak_mib_(peak_mib) {}
  void fit(const la::Matrix& x, const std::vector<std::int64_t>& y,
           std::size_t num_classes,
           const std::vector<double>& weights) override {
    if (peak_mib_ != nullptr) {
      *peak_mib_ = heap_peak_mib(g_live_bytes.load(std::memory_order_relaxed),
                                 "views_stage");
    }
    models::MLPClassifier::fit(x, y, num_classes, weights);
  }

 private:
  double* peak_mib_;
};

// train()'s views stage: from the reconstructor fit's return to the
// classifier fit, the live heap rises above the classifier's inputs only by
// what one reconstruct() call holds (its output, its noise and one row
// block of scratch).  Each view's invariant block is corrupted and
// reconstructed in place in the classifier matrix; an `x_inv` copy of the
// invariant columns or an `inv_view` staging matrix shows here.  The bound
// is 1.25x the 0.79 MiB measured when it was set (x86-64, glibc 2.36); with
// an `x_inv` copy put back the stage peaked at 1.18 MiB.
TEST(PeakHeapTest, TrainViewsStagePeakIsPinned) {
  SKIP_WITHOUT_HEAP_PROBE();
  // Twice make_pipeline's rows and half its CGAN width, so the per-row
  // matrices of the stage dominate the one row block of network scratch.
  const data::Dataset source = make_data(41, 4000, false);
  const data::Dataset shots = make_data(43, 60, true);
  const auto probed_pipeline = [](std::uint64_t seed, double* peak_mib) {
    models::NeuralOptions nopt;
    nopt.hidden = {32};
    nopt.epochs = 2;
    core::CganOptions gopt;
    gopt.epochs = 2;
    gopt.hidden = {32, 32};
    return core::FsGanPipeline(
        [nopt, peak_mib](std::uint64_t s) {
          return std::make_unique<PeakReadingMlp>(s, nopt, peak_mib);
        },
        [gopt](std::size_t inv, std::size_t var, std::uint64_t s) {
          return std::make_unique<PeakResettingCgan>(inv, var, gopt, s);
        },
        core::PipelineOptions{}, seed);
  };
  // The first pipeline warms every process-wide structure.
  core::FsGanPipeline first = probed_pipeline(3, nullptr);
  first.train(source, shots);
  double views_peak_mib = -1.0;
  core::FsGanPipeline second = probed_pipeline(5, &views_peak_mib);
  second.train(source, shots);
  ASSERT_TRUE(second.is_trained());
  ASSERT_GE(views_peak_mib, 0.0) << "the classifier fit was never reached";
  EXPECT_LT(views_peak_mib, 1.25 * 0.79)
      << "train()'s views stage held more than one reconstruct() call's "
         "scratch above the classifier matrix";
}

}  // namespace
}  // namespace fsda
