#include "core/cgan.hpp"

#include "core/corruption.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"
#include "nn/activations.hpp"
#include "nn/backend.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/parallel_sum.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

CganOptions CganOptions::quick() {
  CganOptions o;
  o.hidden = {96, 96};
  o.epochs = 200;
  o.batch_size = 96;
  o.learning_rate = 5e-4;
  o.recon_weight = 0.25;
  return o;
}

CganOptions CganOptions::paper() {
  CganOptions o;
  o.epochs = 500;
  o.batch_size = 64;
  o.recon_weight = 0.0;  // pure adversarial objective, as in the paper
  return o;
}

ConditionalGAN::ConditionalGAN(std::size_t inv_dim, std::size_t var_dim,
                               CganOptions options, std::uint64_t seed)
    : inv_dim_(inv_dim),
      var_dim_(var_dim),
      options_(std::move(options)),
      noise_dim_(options_.noise_dim),
      rng_(seed ^ 0xC6A4ULL) {
  FSDA_CHECK_MSG(inv_dim > 0, "no invariant features to condition on");
  FSDA_CHECK_MSG(var_dim > 0, "no variant features to reconstruct");
  if (noise_dim_ == 0) {
    noise_dim_ = std::clamp<std::size_t>(var_dim / 3, 4, 30);
  }
  if (options_.hidden.empty()) {
    const std::size_t width = (inv_dim + var_dim) >= 300 ? 256 : 128;
    options_.hidden = {width, width};
  }
}

void ConditionalGAN::sample_noise_into(std::size_t rows, la::Matrix& z) {
  sample_noise_into(rows, z, rng_);
}

void ConditionalGAN::sample_noise_into(std::size_t rows, la::Matrix& z,
                                       common::Rng& rng) const {
  z.resize(rows, noise_dim_);
  for (auto& v : z.data()) v = rng.normal();
}

la::Matrix ConditionalGAN::one_hot(const std::vector<std::int64_t>& labels,
                                   std::size_t num_classes) const {
  la::Matrix out(labels.size(), num_classes, 0.0);
  for (std::size_t r = 0; r < labels.size(); ++r) {
    FSDA_CHECK(labels[r] >= 0 &&
               static_cast<std::size_t>(labels[r]) < num_classes);
    out(r, static_cast<std::size_t>(labels[r])) = 1.0;
  }
  return out;
}

void ConditionalGAN::fit(const la::Matrix& x_inv, const la::Matrix& x_var,
                         const std::vector<std::int64_t>& labels,
                         std::size_t num_classes) {
  FSDA_EVENT_SCOPE(obs::EventCategory::Training, "cgan.fit");
  common::Stopwatch fit_watch;
  const double pack_seconds0 = nn::gemm_pack_seconds();
  std::size_t step_count = 0;  // one D+G optimizer-step pair per batch
  const std::size_t n = x_inv.rows();
  FSDA_CHECK(x_var.rows() == n && labels.size() == n);
  FSDA_CHECK(x_inv.cols() == inv_dim_ && x_var.cols() == var_dim_);

  common::Rng init_rng = rng_.split(0x6E17ULL);
  // Generator: tanh( linear([X_inv, Z]) + MLP([X_inv, Z]) ).  The parallel
  // linear path captures the dominant linear structure of telemetry
  // conditionals immediately; the ReLU+BN trunk (CTGAN-style) learns the
  // nonlinear correction and the noise-driven spread.
  const auto make_generator = [&](common::Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    const std::size_t in = inv_dim_ + noise_dim_;
    auto trunk = std::make_unique<nn::Sequential>();
    std::size_t width = in;
    for (std::size_t h : options_.hidden) {
      trunk->emplace<nn::Linear>(width, h, rng);
      trunk->emplace<nn::ReLU>();
      trunk->emplace<nn::BatchNorm1d>(h);
      width = h;
    }
    trunk->emplace<nn::Linear>(width, var_dim_, rng);
    auto skip = std::make_unique<nn::Linear>(in, var_dim_, rng);
    net->add(
        std::make_unique<nn::ParallelSum>(std::move(skip), std::move(trunk)));
    net->emplace<nn::Tanh>();
    return net;
  };
  // Discriminator: [X_inv, X_var(, Y)] -> LeakyReLU+Dropout x2 -> sigmoid.
  const std::size_t label_dim = options_.conditional ? num_classes : 0;
  const auto make_discriminator = [&](common::Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    std::size_t width = inv_dim_ + var_dim_ + label_dim;
    for (std::size_t h : options_.hidden) {
      net->emplace<nn::Linear>(width, h, rng);
      net->emplace<nn::LeakyReLU>(0.2);
      net->emplace<nn::Dropout>(options_.dropout, rng.split(h));
      width = h;
    }
    net->emplace<nn::Linear>(width, 1, rng);
    net->emplace<nn::Sigmoid>();
    return net;
  };
  generator_ = make_generator(init_rng);
  discriminator_ = make_discriminator(init_rng);

  // Warm start (one-shot, DESIGN.md §16): the networks above were built
  // normally -- consuming init_rng in the exact cold order -- and only then
  // are the previous generation's weights restored over them, so a warm
  // request changes the starting weights and the epoch cap, never the order
  // in which the fit draws from its streams.  A shape mismatch (e.g. a
  // different num_classes changing the discriminator input width) silently
  // degrades to a cold fit.
  std::vector<la::Matrix> warm_g = std::move(warm_g_);
  std::vector<la::Matrix> warm_d = std::move(warm_d_);
  warm_g_.clear();
  warm_d_.clear();
  warm_started_ = false;
  const auto shapes_match = [](const std::vector<nn::Parameter*>& params,
                               const std::vector<la::Matrix>& snap) {
    if (params.size() != snap.size()) return false;
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (params[i]->value.rows() != snap[i].rows() ||
          params[i]->value.cols() != snap[i].cols()) {
        return false;
      }
    }
    return true;
  };
  std::vector<la::Matrix> cold_init;  // fallback target for diverged warm fits
  if (!warm_g.empty() && shapes_match(generator_->parameters(), warm_g) &&
      shapes_match(discriminator_->parameters(), warm_d)) {
    cold_init = capture_parameters(generator_->parameters());
    for (const nn::Parameter* p : discriminator_->parameters()) {
      cold_init.push_back(p->value);
    }
    restore_parameters(generator_->parameters(), warm_g);
    restore_parameters(discriminator_->parameters(), warm_d);
    warm_started_ = true;
  }
  const std::size_t warm_budget =
      options_.warm_epochs > 0
          ? options_.warm_epochs
          : std::max<std::size_t>(options_.epochs / 4,
                                  std::min<std::size_t>(options_.epochs, 8));

  // Training scratch, local to this fit (DESIGN.md §7): the workspace and the
  // mini-batch buffers keep their capacity from step to step, so a
  // steady-state step allocates nothing, and all of it is freed on return.
  struct StepScratch {
    nn::Workspace ws;
    la::Matrix inv;
    la::Matrix var;
    la::Matrix y;
    la::Matrix corrupt;
    la::Matrix noise;
    la::Matrix g_in;
    la::Matrix d_in;
    la::Matrix loss_grad;
    la::Matrix grad_fake;
    la::Matrix recon_grad;
    std::vector<double> ones;
    std::vector<double> zeros;
  };
  StepScratch b;

  const la::Matrix y_onehot = one_hot(labels, num_classes);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t batch = std::min(options_.batch_size, n);

  // Assembles [X_inv | var_block (| Y)] into the persistent b.d_in buffer
  // through column-block views -- no temporaries.
  const auto build_d_input = [&](const la::Matrix& var_block) -> la::Matrix& {
    b.d_in.resize(var_block.rows(), inv_dim_ + var_dim_ + label_dim);
    la::MatrixView dv(b.d_in);
    la::copy_into(b.inv, dv.col_block(0, inv_dim_));
    la::copy_into(var_block, dv.col_block(inv_dim_, var_dim_));
    if (options_.conditional) {
      la::copy_into(b.y, dv.col_block(inv_dim_ + var_dim_, label_dim));
    }
    return b.d_in;
  };

  // The generator input of one step half: marginal-preserving corruption of
  // the invariant block, then noise, both from rng_ in the order the steps
  // consume them.
  const auto draw_generator_input = [&] {
    permute_corrupt_into(b.inv, options_.input_corruption_p, rng_, b.corrupt);
    sample_noise_into(b.inv.rows(), b.noise);
    la::hcat_into(b.corrupt, b.noise, b.g_in);
  };

  // A D-step training forward of the discriminator during which the
  // calling thread draws the next generator input before claiming its share
  // of the first row region (nn::Pass::caller_task): the draws are serial,
  // the rows are not.
  const auto discriminator_forward_drawing =
      [&](const la::Matrix& d_in) -> const la::Matrix& {
    nn::Pass pass(d_in.rows());
    pass.caller_task(draw_generator_input);
    const la::Matrix& prob =
        discriminator_->stage_forward(d_in, /*training=*/true, b.ws, pass);
    pass.finish();
    return prob;
  };

  // Backward pass whose returned dX is discarded (every pass but the G-step
  // backward through D): the network's first layer skips its dX.  Parameter
  // gradients are bit-identical either way.
  const auto backward_params_only = [](nn::Layer& net, const la::Matrix& grad,
                                       nn::Workspace& ws) {
    ws.set_input_grad_enabled(false);
    net.backward(grad, ws);
    ws.set_input_grad_enabled(true);
  };

  // Divergence recovery: both networks' parameters are snapshotted every
  // snapshot_every healthy epochs; a NaN/Inf or sustained-explosion epoch
  // rolls back to the last snapshot and retries the fit with a decayed
  // learning rate and a reseeded noise/shuffle stream.
  std::vector<nn::Parameter*> all_params = generator_->parameters();
  for (nn::Parameter* p : discriminator_->parameters()) all_params.push_back(p);
  TrainingSentinel sentinel(all_params, options_.retry, options_.divergence,
                            options_.snapshot_every);

  // Every fit stops early once the generator's holdout reconstruction MSE
  // plateaus: a stride sample of the training rows paired with one fixed
  // noise draw, so successive epochs are scored on identical inputs.  The
  // epoch budget (warm_epochs for a warm attempt, epochs otherwise) is a cap.
  // The holdout runs through the training workspace in blocks of at most
  // `batch` rows, so scoring it never grows the step buffers; its whole
  // output is gathered before the one MSE, so the stop epoch is the same as
  // for a single pass.  Its rows are read in place, as strided views of the
  // training inputs.
  const std::size_t hold_stride = std::max<std::size_t>(1, n / 256);
  const std::size_t hold_count = (n + hold_stride - 1) / hold_stride;
  const la::ConstMatrixView hold_inv(x_inv.data().data(), hold_count,
                                     inv_dim_, hold_stride * inv_dim_);
  const la::ConstMatrixView hold_var(x_var.data().data(), hold_count,
                                     var_dim_, hold_stride * var_dim_);
  la::Matrix hold_noise;
  la::Matrix hold_fake;
  {
    common::Rng hold_rng = rng_.split(0x401DULL);
    sample_noise_into(hold_count, hold_noise, hold_rng);
  }

  // Hoisted once per fit; inc() per epoch is a gated atomic add.
  obs::Counter& epochs_total = obs::MetricsRegistry::global().counter(
      "cgan.epochs_total", "CGAN training epochs completed");
  obs::HdrHistogram& epoch_ms = obs::MetricsRegistry::global().hdr(
      "training.epoch_ms", obs::HdrOptions{},
      "reconstructor training epoch wall time (ms), all model kinds");

  const auto run_attempt = [&] {
    const bool warm_attempt = warm_started_ && sentinel.health().retries == 0;
    if (sentinel.health().retries > 0) {
      rng_ = rng_.split(sentinel.seed_salt());
      // A diverged warm attempt falls back to the cold initialization: every
      // retry is an ordinary cold fit capped at `epochs`.
      if (warm_started_) restore_parameters(all_params, cold_init);
    }
    const std::size_t attempt_epochs =
        warm_attempt ? std::min(warm_budget, options_.epochs)
                     : options_.epochs;
    double best_holdout = std::numeric_limits<double>::infinity();
    std::size_t plateau_streak = 0;
    const double lr = options_.learning_rate * sentinel.lr_scale();
    nn::Adam g_opt(generator_->parameters(), lr, options_.adam_beta1, 0.999,
                   1e-8, options_.weight_decay);
    nn::Adam d_opt(discriminator_->parameters(), lr, options_.adam_beta1,
                   0.999, 1e-8, options_.weight_decay);

    history_.clear();
    history_.reserve(attempt_epochs);
    for (std::size_t epoch = 0; epoch < attempt_epochs; ++epoch) {
      common::Stopwatch epoch_watch;
      rng_.shuffle(order);
      GanEpochStats stats;
      std::size_t batches = 0;
      for (std::size_t start = 0; start + 1 < n; start += batch) {
        const std::size_t end = std::min(n, start + batch);
        const std::span<const std::size_t> rows{order.data() + start,
                                                end - start};
        const std::size_t m = rows.size();
        if (m < 2) continue;  // batch norm needs at least two rows
        la::select_rows_into(x_inv, rows, b.inv);
        la::select_rows_into(x_var, rows, b.var);
        if (options_.conditional) la::select_rows_into(y_onehot, rows, b.y);

        b.ones.assign(m, 1.0);
        b.zeros.assign(m, 0.0);

        // ---- Discriminator step (eq. 8) ----
        // The step's two generator inputs are drawn on the calling thread
        // while the pool carries the discriminator's rows: the D-step's
        // during the real pass, the G-step's during the fake pass (the
        // D-step's generator input is spent by then: its backward never
        // runs, so nothing reads it again).
        d_opt.zero_grad();
        {
          const la::Matrix& real_prob =
              discriminator_forward_drawing(build_d_input(b.var));
          const double real_loss =
              nn::bce_on_probs_into(real_prob, b.ones, b.loss_grad);
          backward_params_only(*discriminator_, b.loss_grad, b.ws);

          const la::Matrix& fake =
              generator_->forward(b.g_in, /*training=*/true, b.ws);
          const la::Matrix& fake_prob =
              discriminator_forward_drawing(build_d_input(fake));
          const double fake_loss =
              nn::bce_on_probs_into(fake_prob, b.zeros, b.loss_grad);
          backward_params_only(*discriminator_, b.loss_grad, b.ws);
          d_opt.step();
          stats.d_loss += real_loss + fake_loss;
        }

        // ---- Generator step (eq. 9, non-saturating) ----
        g_opt.zero_grad();
        // With the skip active, D's weight gradients are never touched
        // here; otherwise they accumulate and are discarded by zeroing.
        if (!options_.skip_d_grads_in_g_step) d_opt.zero_grad();
        {
          const la::Matrix& fake =
              generator_->forward(b.g_in, /*training=*/true, b.ws);
          const la::Matrix& fake_prob = discriminator_->forward(
              build_d_input(fake), /*training=*/true, b.ws);
          const double adv_loss =
              nn::bce_on_probs_into(fake_prob, b.ones, b.loss_grad);
          // Only dX of the discriminator is consumed below; its dW/db are
          // skipped when the option allows (identical dX either way).
          b.ws.set_param_grads_enabled(!options_.skip_d_grads_in_g_step);
          const la::Matrix& grad_d_input =
              discriminator_->backward(b.loss_grad, b.ws);
          b.ws.set_param_grads_enabled(true);
          // Slice the gradient w.r.t. the generated block out of the
          // discriminator's input gradient.
          b.grad_fake.resize(m, var_dim_);
          la::copy_into(la::ConstMatrixView(grad_d_input)
                            .col_block(inv_dim_, var_dim_),
                        b.grad_fake);
          double recon_value = 0.0;
          if (options_.recon_weight > 0.0) {
            recon_value = nn::mse_into(fake, b.var, b.recon_grad);
            b.recon_grad *= options_.recon_weight;
            b.grad_fake += b.recon_grad;
          }
          backward_params_only(*generator_, b.grad_fake, b.ws);
          g_opt.step();
          if (!options_.skip_d_grads_in_g_step) d_opt.zero_grad();
          stats.g_adv_loss += adv_loss;
          stats.g_recon_loss += recon_value;
        }
        ++step_count;
        ++batches;
      }
      if (batches > 0) {
        stats.d_loss /= static_cast<double>(batches);
        stats.g_adv_loss /= static_cast<double>(batches);
        stats.g_recon_loss /= static_cast<double>(batches);
      }
      history_.push_back(stats);
      epochs_total.inc();
      epoch_ms.record(epoch_watch.millis());
      if (sentinel.observe_epoch(
              epoch, stats.d_loss + stats.g_adv_loss + stats.g_recon_loss)) {
        return;  // diverged; parameters rolled back to last healthy snapshot
      }
      nn::forward_rows_into(*generator_, {hold_inv, hold_noise}, hold_fake,
                            b.ws, batch);
      const double hold_mse = nn::mse_value(hold_fake, hold_var);
      if (hold_mse < best_holdout - options_.plateau_min_delta) {
        best_holdout = hold_mse;
        plateau_streak = 0;
      } else if (++plateau_streak >= options_.plateau_patience) {
        return;  // holdout MSE plateaued: further epochs stopped paying
      }
    }
  };

  do {
    run_attempt();
  } while (sentinel.retry_after_divergence());
  train_health_ = sentinel.health();
  // Nothing reads a gradient after the fit: plans compile from `value`,
  // warm_start_from captures `value`, and every fit builds fresh networks.
  for (nn::Parameter* p : all_params) p->grad = la::Matrix();
  if (!history_.empty()) {
    auto& registry = obs::MetricsRegistry::global();
    const GanEpochStats& last = history_.back();
    registry.gauge("cgan.d_loss", "discriminator loss, last CGAN epoch")
        .set(last.d_loss);
    registry
        .gauge("cgan.g_adv_loss", "generator adversarial loss, last epoch")
        .set(last.g_adv_loss);
    registry
        .gauge("cgan.g_recon_loss", "generator reconstruction loss, last "
                                    "epoch")
        .set(last.g_recon_loss);
  }
  {
    auto& registry = obs::MetricsRegistry::global();
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

bool ConditionalGAN::warm_start_from(const Reconstructor& previous) {
  const auto* prev = dynamic_cast<const ConditionalGAN*>(&previous);
  if (prev == nullptr || !prev->fitted_) return false;
  // Architecture knobs that shape the parameter tensors must match; the
  // discriminator width also depends on num_classes, which only fit() sees,
  // so fit() re-verifies shapes before restoring.
  if (prev->inv_dim_ != inv_dim_ || prev->var_dim_ != var_dim_ ||
      prev->noise_dim_ != noise_dim_ ||
      prev->options_.conditional != options_.conditional ||
      prev->options_.hidden != options_.hidden) {
    return false;
  }
  warm_g_ = capture_parameters(prev->generator_->parameters());
  warm_d_ = capture_parameters(prev->discriminator_->parameters());
  return true;
}

ServingStage ConditionalGAN::serving_stage() {
  FSDA_CHECK_MSG(fitted_, "serving_stage before fit");
  return {generator_.get(), noise_dim_, &rng_, nullptr};
}

la::Matrix ConditionalGAN::reconstruct(la::ConstMatrixView x_inv) {
  FSDA_CHECK_MSG(fitted_, "reconstruct before fit");
  FSDA_CHECK(x_inv.cols() == inv_dim_);
  // Noise for every row is drawn first, in the order the stream has always
  // been consumed; the generator then runs in row blocks, so the call-local
  // scratch (DESIGN.md §7) is one block's activations, not the batch's.
  la::Matrix noise;
  sample_noise_into(x_inv.rows(), noise);
  la::Matrix out;
  nn::Workspace ws;
  nn::forward_rows_into(*generator_, {x_inv, noise}, out, ws);
  return out;
}

}  // namespace fsda::core
