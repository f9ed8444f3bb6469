#include "core/autoencoder.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "nn/activations.hpp"
#include "nn/backend.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/parallel_sum.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

AutoencoderOptions AutoencoderOptions::quick() {
  AutoencoderOptions o;
  o.hidden = {96, 96};
  o.epochs = 180;
  o.learning_rate = 1.5e-3;
  return o;
}

AutoencoderReconstructor::AutoencoderReconstructor(std::size_t inv_dim,
                                                   std::size_t var_dim,
                                                   AutoencoderOptions options,
                                                   std::uint64_t seed)
    : inv_dim_(inv_dim),
      var_dim_(var_dim),
      options_(std::move(options)),
      rng_(seed ^ 0xAE0ULL) {
  FSDA_CHECK(inv_dim > 0 && var_dim > 0);
  if (options_.hidden.empty()) {
    const std::size_t width = (inv_dim + var_dim) >= 300 ? 256 : 128;
    options_.hidden = {width, width};
  }
}

void AutoencoderReconstructor::fit(const la::Matrix& x_inv,
                                   const la::Matrix& x_var,
                                   const std::vector<std::int64_t>& /*labels*/,
                                   std::size_t /*num_classes*/) {
  FSDA_EVENT_SCOPE(obs::EventCategory::Training, "ae.fit");
  common::Stopwatch fit_watch;
  const double pack_seconds0 = nn::gemm_pack_seconds();
  std::size_t step_count = 0;
  const std::size_t n = x_inv.rows();
  FSDA_CHECK(x_var.rows() == n);
  FSDA_CHECK(x_inv.cols() == inv_dim_ && x_var.cols() == var_dim_);

  common::Rng init_rng = rng_.split(0xA0E0ULL);
  // Architecture matches the GAN generator (Section VI-E): a parallel
  // linear path plus an MLP correction, minus the noise input.
  net_ = std::make_unique<nn::Sequential>();
  {
    auto trunk = std::make_unique<nn::Sequential>();
    std::size_t width = inv_dim_;
    for (std::size_t h : options_.hidden) {
      trunk->emplace<nn::Linear>(width, h, init_rng);
      trunk->emplace<nn::ReLU>();
      width = h;
    }
    trunk->emplace<nn::Linear>(width, var_dim_, init_rng);
    auto skip = std::make_unique<nn::Linear>(inv_dim_, var_dim_, init_rng);
    net_->add(
        std::make_unique<nn::ParallelSum>(std::move(skip), std::move(trunk)));
    net_->emplace<nn::Tanh>();
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t batch = std::min(options_.batch_size, n);

  const std::vector<nn::Parameter*> params = net_->parameters();
  TrainingSentinel sentinel(params, options_.retry, options_.divergence,
                            options_.snapshot_every);
  obs::Counter& epochs_total = obs::MetricsRegistry::global().counter(
      "ae.epochs_total", "autoencoder training epochs completed");
  obs::HdrHistogram& epoch_ms = obs::MetricsRegistry::global().hdr(
      "training.epoch_ms", obs::HdrOptions{},
      "reconstructor training epoch wall time (ms), all model kinds");

  // Training scratch, local to this fit (DESIGN.md §7): capacities carry
  // from step to step, and everything is freed when fit() returns.
  struct StepScratch {
    nn::Workspace ws;
    la::Matrix inv;
    la::Matrix var;
    la::Matrix loss_grad;
  };
  StepScratch b;

  const auto run_attempt = [&] {
    if (sentinel.health().retries > 0) rng_ = rng_.split(sentinel.seed_salt());
    nn::Adam optimizer(params, options_.learning_rate * sentinel.lr_scale(),
                       0.9, 0.999, 1e-8, options_.weight_decay);
    for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      common::Stopwatch epoch_watch;
      rng_.shuffle(order);
      double epoch_loss = 0.0;
      std::size_t batches = 0;
      for (std::size_t start = 0; start < n; start += batch) {
        const std::size_t end = std::min(n, start + batch);
        const std::span<const std::size_t> rows{order.data() + start,
                                                end - start};
        la::select_rows_into(x_inv, rows, b.inv);
        la::select_rows_into(x_var, rows, b.var);
        optimizer.zero_grad();
        const la::Matrix& recon =
            net_->forward(b.inv, /*training=*/true, b.ws);
        const double loss = nn::mse_into(recon, b.var, b.loss_grad);
        net_->backward(b.loss_grad, b.ws);
        epoch_loss += loss;
        optimizer.step();
        ++step_count;
        ++batches;
      }
      last_loss_ = epoch_loss / static_cast<double>(std::max<std::size_t>(
                                    1, batches));
      epochs_total.inc();
      epoch_ms.record(epoch_watch.millis());
      if (sentinel.observe_epoch(epoch, last_loss_)) return;  // diverged
    }
  };

  do {
    run_attempt();
  } while (sentinel.retry_after_divergence());
  train_health_ = sentinel.health();
  // Nothing reads a gradient after the fit: reconstruct() runs forward
  // only, and every fit builds a fresh network.
  for (nn::Parameter* p : params) p->grad = la::Matrix();
  {
    auto& registry = obs::MetricsRegistry::global();
    registry
        .gauge("ae.loss", "mean epoch loss of the last autoencoder epoch")
        .set(last_loss_);
    const double fit_seconds = fit_watch.seconds();
    registry
        .gauge("training.steps_per_second",
               "optimizer steps per second, last fit")
        .set(fit_seconds > 0.0 ? static_cast<double>(step_count) / fit_seconds
                               : 0.0);
    registry
        .gauge("training.gemm_pack_seconds",
               "wall-clock seconds spent packing GEMM panels, last fit")
        .set(nn::gemm_pack_seconds() - pack_seconds0);
  }
  fitted_ = true;
}

ServingStage AutoencoderReconstructor::serving_stage() {
  FSDA_CHECK_MSG(fitted_, "serving_stage before fit");
  return {net_.get(), 0, nullptr, nullptr};
}

la::Matrix AutoencoderReconstructor::reconstruct(la::ConstMatrixView x_inv) {
  FSDA_CHECK_MSG(fitted_, "reconstruct before fit");
  FSDA_CHECK(x_inv.cols() == inv_dim_);
  // Call-local scoring scratch, one row block deep (DESIGN.md §7).
  la::Matrix out;
  nn::Workspace ws;
  nn::forward_rows_into(*net_, {x_inv}, out, ws);
  return out;
}

}  // namespace fsda::core
