#include "core/vae.hpp"

#include <algorithm>
#include <cmath>
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

VaeOptions VaeOptions::quick() {
  VaeOptions o;
  o.hidden = {96, 96};
  o.epochs = 180;
  o.learning_rate = 1.5e-3;
  return o;
}

VaeReconstructor::VaeReconstructor(std::size_t inv_dim, std::size_t var_dim,
                                   VaeOptions options, std::uint64_t seed)
    : inv_dim_(inv_dim),
      var_dim_(var_dim),
      options_(std::move(options)),
      latent_dim_(options_.latent_dim),
      rng_(seed ^ 0x7AE5ULL) {
  FSDA_CHECK(inv_dim > 0 && var_dim > 0);
  if (latent_dim_ == 0) {
    latent_dim_ = std::clamp<std::size_t>(var_dim / 3, 4, 30);
  }
  if (options_.hidden.empty()) {
    const std::size_t width = (inv_dim + var_dim) >= 300 ? 256 : 128;
    options_.hidden = {width, width};
  }
}

void VaeReconstructor::fit(const la::Matrix& x_inv, const la::Matrix& x_var,
                           const std::vector<std::int64_t>& /*labels*/,
                           std::size_t /*num_classes*/) {
  FSDA_EVENT_SCOPE(obs::EventCategory::Training, "vae.fit");
  common::Stopwatch fit_watch;
  const double pack_seconds0 = nn::gemm_pack_seconds();
  std::size_t step_count = 0;
  const std::size_t n = x_inv.rows();
  FSDA_CHECK(x_var.rows() == n);
  FSDA_CHECK(x_inv.cols() == inv_dim_ && x_var.cols() == var_dim_);

  common::Rng init_rng = rng_.split(0x1A7EULL);
  // The encoder [inv|var] -> [mu|log_var] serves only training, so it lives
  // and dies with this fit; reconstruct() runs the decoder alone.
  nn::Sequential encoder;
  {
    std::size_t width = inv_dim_ + var_dim_;
    for (std::size_t h : options_.hidden) {
      encoder.emplace<nn::Linear>(width, h, init_rng);
      encoder.emplace<nn::ReLU>();
      width = h;
    }
    encoder.emplace<nn::Linear>(width, 2 * latent_dim_, init_rng);
  }
  {
    // Decoder matches the GAN generator (Section VI-E): parallel linear
    // path plus MLP correction.
    decoder_ = std::make_unique<nn::Sequential>();
    const std::size_t in = inv_dim_ + latent_dim_;
    auto trunk = std::make_unique<nn::Sequential>();
    std::size_t width = in;
    for (std::size_t h : options_.hidden) {
      trunk->emplace<nn::Linear>(width, h, init_rng);
      trunk->emplace<nn::ReLU>();
      width = h;
    }
    trunk->emplace<nn::Linear>(width, var_dim_, init_rng);
    auto skip = std::make_unique<nn::Linear>(in, var_dim_, init_rng);
    decoder_->add(
        std::make_unique<nn::ParallelSum>(std::move(skip), std::move(trunk)));
    decoder_->emplace<nn::Tanh>();
  }

  std::vector<nn::Parameter*> params = encoder.parameters();
  for (nn::Parameter* p : decoder_->parameters()) params.push_back(p);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t batch = std::min(options_.batch_size, n);

  TrainingSentinel sentinel(params, options_.retry, options_.divergence,
                            options_.snapshot_every);
  obs::Counter& epochs_total = obs::MetricsRegistry::global().counter(
      "vae.epochs_total", "VAE training epochs completed");
  obs::HdrHistogram& epoch_ms = obs::MetricsRegistry::global().hdr(
      "training.epoch_ms", obs::HdrOptions{},
      "reconstructor training epoch wall time (ms), all model kinds");

  // Training scratch, local to this fit (DESIGN.md §7): capacities carry
  // from step to step, and everything is freed when fit() returns.
  struct StepScratch {
    nn::Workspace ws;
    la::Matrix inv;
    la::Matrix var;
    la::Matrix enc_in;
    la::Matrix dec_in;
    la::Matrix mu;
    la::Matrix log_var;
    la::Matrix eps;
    la::Matrix z;
    la::Matrix recon_grad;
    la::Matrix grad_enc_out;
    nn::KlResult kl;
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
        const std::size_t m = rows.size();
        la::select_rows_into(x_inv, rows, b.inv);
        la::select_rows_into(x_var, rows, b.var);

        optimizer.zero_grad();
        // Encode: split encoder output into mu | log_var.
        la::hcat_into(b.inv, b.var, b.enc_in);
        const la::Matrix& enc_out =
            encoder.forward(b.enc_in, /*training=*/true, b.ws);
        b.mu.resize(m, latent_dim_);
        b.log_var.resize(m, latent_dim_);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t c = 0; c < latent_dim_; ++c) {
            b.mu(r, c) = enc_out(r, c);
            // Clamp log-variance for numerical safety.
            b.log_var(r, c) =
                std::clamp(enc_out(r, latent_dim_ + c), -8.0, 8.0);
          }
        }

        // Reparameterize: z = mu + exp(log_var / 2) * eps.
        b.eps.resize(m, latent_dim_);
        for (auto& v : b.eps.data()) v = rng_.normal();
        b.z.resize(m, latent_dim_);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t c = 0; c < latent_dim_; ++c) {
            b.z(r, c) =
                b.mu(r, c) + std::exp(0.5 * b.log_var(r, c)) * b.eps(r, c);
          }
        }

        // Decode and compute losses.
        la::hcat_into(b.inv, b.z, b.dec_in);
        const la::Matrix& recon =
            decoder_->forward(b.dec_in, /*training=*/true, b.ws);
        const double rec_value = nn::mse_into(recon, b.var, b.recon_grad);
        nn::gaussian_kl_into(b.mu, b.log_var, b.kl);
        epoch_loss += rec_value + options_.kl_weight * b.kl.value;

        // Backprop: decoder -> z -> (mu, log_var) -> encoder.
        const la::Matrix& grad_dec_in =
            decoder_->backward(b.recon_grad, b.ws);
        b.grad_enc_out.resize(m, 2 * latent_dim_);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t c = 0; c < latent_dim_; ++c) {
            const double gz = grad_dec_in(r, inv_dim_ + c);
            const double sigma = std::exp(0.5 * b.log_var(r, c));
            b.grad_enc_out(r, c) =
                gz + options_.kl_weight * b.kl.grad_mu(r, c);
            b.grad_enc_out(r, latent_dim_ + c) =
                gz * b.eps(r, c) * 0.5 * sigma +
                options_.kl_weight * b.kl.grad_log_var(r, c);
          }
        }
        encoder.backward(b.grad_enc_out, b.ws);
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
  // Nothing reads a gradient after the fit: reconstruct() runs the decoder
  // forward only, and every fit builds fresh networks.
  for (nn::Parameter* p : decoder_->parameters()) p->grad = la::Matrix();
  {
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("vae.loss", "mean epoch loss of the last VAE epoch")
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

ServingStage VaeReconstructor::serving_stage() {
  FSDA_CHECK_MSG(fitted_, "serving_stage before fit");
  return {decoder_.get(), latent_dim_, &rng_, nullptr};
}

la::Matrix VaeReconstructor::reconstruct(la::ConstMatrixView x_inv) {
  FSDA_CHECK_MSG(fitted_, "reconstruct before fit");
  FSDA_CHECK(x_inv.cols() == inv_dim_);
  // Every row's latent draw first, in the stream's order; the decoder then
  // runs in row blocks on call-local scratch (DESIGN.md §7).
  la::Matrix z(x_inv.rows(), latent_dim_);
  for (auto& v : z.data()) v = rng_.normal();
  la::Matrix out;
  nn::Workspace ws;
  nn::forward_rows_into(*decoder_, {x_inv, z}, out, ws);
  return out;
}

}  // namespace fsda::core
