#include "core/autoencoder.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "la/kernels.hpp"
#include "la/view.hpp"
#include "nn/activations.hpp"
#include "nn/backend.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/parallel_sum.hpp"
#include "nn/sharded.hpp"
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
  // linear path plus an MLP correction, minus the noise input.  The builder
  // takes the rng so the same architecture can be cloned for shard replicas;
  // the master consumes init_rng in the exact pre-sharding order.
  const auto make_net = [&](common::Rng& rng) {
    auto net = std::make_unique<nn::Sequential>();
    auto trunk = std::make_unique<nn::Sequential>();
    std::size_t width = inv_dim_;
    for (std::size_t h : options_.hidden) {
      trunk->emplace<nn::Linear>(width, h, rng);
      trunk->emplace<nn::ReLU>();
      width = h;
    }
    trunk->emplace<nn::Linear>(width, var_dim_, rng);
    auto skip = std::make_unique<nn::Linear>(inv_dim_, var_dim_, rng);
    net->add(
        std::make_unique<nn::ParallelSum>(std::move(skip), std::move(trunk)));
    net->emplace<nn::Tanh>();
    return net;
  };
  net_ = make_net(init_rng);

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

  // Deterministic data-parallel sharding (nn/sharded.hpp); see core/cgan.cpp.
  // train_shards == 1 (default) keeps the exact pre-sharding trajectory.
  struct AeReplica : StepScratch {
    std::unique_ptr<nn::Sequential> net;
    std::vector<nn::Parameter*> params;
    double loss = 0.0;
  };
  const std::size_t max_shards =
      nn::resolve_shard_count(options_.train_shards, batch);
  std::vector<std::unique_ptr<AeReplica>> replicas;
  std::vector<std::vector<nn::Parameter*>> all_lists;
  if (max_shards > 1) {
    replicas.reserve(max_shards);
    for (std::size_t r = 0; r < max_shards; ++r) {
      common::Rng rep_rng = init_rng.split(0xD15C0ULL + r);
      auto rep = std::make_unique<AeReplica>();
      rep->net = make_net(rep_rng);
      rep->params = rep->net->parameters();
      all_lists.push_back(rep->params);
      replicas.push_back(std::move(rep));
    }
  }
  std::vector<nn::ShardRange> ranges;

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
        const std::size_t shards =
            replicas.empty()
                ? 1
                : std::min(nn::resolve_shard_count(options_.train_shards, m),
                           replicas.size());
        if (shards <= 1) {
          const la::Matrix& recon =
              net_->forward(b.inv, /*training=*/true, b.ws);
          const double loss = nn::mse_into(recon, b.var, b.loss_grad);
          net_->backward(b.loss_grad, b.ws);
          epoch_loss += loss;
        } else {
          // ---- Sharded step ----  Per-shard loss gradients are weighted by
          // rows_r / rows so the reduced gradient equals the full-batch
          // mean-loss gradient; shards touch only replica-owned state.
          ranges.clear();
          for (std::size_t r = 0; r < shards; ++r) {
            ranges.push_back(nn::shard_range(m, shards, r));
          }
          const double total_m = static_cast<double>(m);
          nn::run_sharded(shards, options_.shard_threads, [&](std::size_t s) {
            AeReplica& rep = *replicas[s];
            const std::size_t row0 = ranges[s].first;
            const std::size_t mr = ranges[s].second - ranges[s].first;
            const double w = static_cast<double>(mr) / total_m;
            nn::broadcast_parameters(params, rep.params);
            for (nn::Parameter* p : rep.params) p->grad.fill(0.0);
            rep.inv.resize(mr, inv_dim_);
            rep.var.resize(mr, var_dim_);
            la::copy_into(la::ConstMatrixView(b.inv).row_block(row0, mr),
                          rep.inv);
            la::copy_into(la::ConstMatrixView(b.var).row_block(row0, mr),
                          rep.var);
            const la::Matrix& recon =
                rep.net->forward(rep.inv, /*training=*/true, rep.ws);
            const double loss = nn::mse_into(recon, rep.var, rep.loss_grad);
            rep.loss_grad *= w;
            rep.net->backward(rep.loss_grad, rep.ws);
            rep.loss = w * loss;
          });
          if (shards == all_lists.size()) {
            nn::reduce_shard_gradients(params, all_lists);
          } else {  // tail batch resolved to fewer shards
            const std::vector<std::vector<nn::Parameter*>> active(
                all_lists.begin(),
                all_lists.begin() + static_cast<std::ptrdiff_t>(shards));
            nn::reduce_shard_gradients(params, active);
          }
          for (std::size_t s = 0; s < shards; ++s) {
            epoch_loss += replicas[s]->loss;
          }
        }
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

la::Matrix AutoencoderReconstructor::reconstruct(const la::Matrix& x_inv) {
  FSDA_CHECK_MSG(fitted_, "reconstruct before fit");
  FSDA_CHECK(x_inv.cols() == inv_dim_);
  nn::Workspace ws;  // call-local scoring scratch (DESIGN.md §7)
  return net_->forward(x_inv, /*training=*/false, ws);
}

}  // namespace fsda::core
