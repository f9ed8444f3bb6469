#include "baselines/dann.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace fsda::baselines {

void Dann::fit(const DAContext& context) {
  const data::Dataset& src = context.source;
  const data::Dataset& tgt = context.target_few;
  num_classes_ = src.num_classes;

  scaler_.fit(src.x);
  const la::Matrix xs = scaler_.transform(src.x);
  const la::Matrix xt = scaler_.transform(tgt.x);

  common::Rng rng(context.seed ^ 0xDA44ULL);
  const std::size_t d = xs.cols();

  features_ = std::make_unique<nn::Sequential>();
  std::size_t width = d;
  for (std::size_t h : options_.feature_hidden) {
    features_->emplace<nn::Linear>(width, h, rng);
    features_->emplace<nn::ReLU>();
    width = h;
  }
  label_head_ = std::make_unique<nn::Sequential>();
  label_head_->emplace<nn::Linear>(width, num_classes_, rng);
  domain_head_ = std::make_unique<nn::Sequential>();
  domain_head_->emplace<nn::Linear>(width, 1, rng);

  std::vector<nn::Parameter*> params = features_->parameters();
  for (auto* p : label_head_->parameters()) params.push_back(p);
  for (auto* p : domain_head_->parameters()) params.push_back(p);
  nn::Adam optimizer(params, options_.learning_rate, 0.9, 0.999, 1e-8,
                     options_.weight_decay);

  const std::size_t n_src = xs.rows();
  const std::size_t n_tgt = xt.rows();
  const std::size_t batch = std::min(options_.batch_size, n_src);
  // Target rows per batch: a quarter of the batch, resampled with
  // replacement from the shots.
  const std::size_t tgt_batch = std::max<std::size_t>(2, batch / 4);

  std::vector<std::size_t> order(n_src);
  std::iota(order.begin(), order.end(), std::size_t{0});

  const std::size_t total_steps =
      options_.epochs * ((n_src + batch - 1) / batch);
  std::size_t step = 0;
  // Training scratch, local to this fit (DESIGN.md §7): capacities carry
  // from step to step, and everything is freed on return.
  nn::Workspace ws;
  la::Matrix src_b;
  la::Matrix tgt_b;
  la::Matrix xb;
  la::Matrix label_grad;
  la::Matrix domain_grad;
  la::Matrix grad_z;
  std::vector<std::size_t> tgt_rows(tgt_batch);
  std::vector<std::int64_t> labels;
  std::vector<double> domains;
  for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < n_src; start += batch) {
      const std::size_t end = std::min(n_src, start + batch);
      const std::span<const std::size_t> src_rows{order.data() + start,
                                                  end - start};
      // Assemble mixed batch: source rows then resampled target rows.
      for (auto& r : tgt_rows) r = rng.uniform_index(n_tgt);
      la::select_rows_into(xs, src_rows, src_b);
      la::select_rows_into(xt, tgt_rows, tgt_b);
      la::vcat_into(src_b, tgt_b, xb);
      const std::size_t m = xb.rows();

      labels.resize(m);
      domains.resize(m);
      for (std::size_t i = 0; i < src_rows.size(); ++i) {
        labels[i] = src.y[src_rows[i]];
        domains[i] = 0.0;
      }
      for (std::size_t i = 0; i < tgt_rows.size(); ++i) {
        labels[src_rows.size() + i] = tgt.y[tgt_rows[i]];
        domains[src_rows.size() + i] = 1.0;
      }

      // Annealed reversal strength (Ganin's schedule).
      const double progress =
          static_cast<double>(step) /
          static_cast<double>(std::max<std::size_t>(1, total_steps));
      const double lambda =
          options_.lambda_max *
          (2.0 / (1.0 + std::exp(-10.0 * progress)) - 1.0);
      ++step;

      optimizer.zero_grad();
      const la::Matrix& z = features_->forward(xb, /*training=*/true, ws);

      // Label loss on all labeled rows (source + labeled shots).
      const la::Matrix& logits = label_head_->forward(z, true, ws);
      nn::softmax_cross_entropy_into(logits, labels, label_grad);
      const la::Matrix& grad_z_label = label_head_->backward(label_grad, ws);

      // Domain loss with gradient reversal into the extractor: the head's
      // own parameters receive the normal gradient; only the gradient
      // flowing back into z is negated and scaled.
      const la::Matrix& domain_logits = domain_head_->forward(z, true, ws);
      nn::bce_with_logits_into(domain_logits, domains, {}, domain_grad);
      const la::Matrix& grad_z_domain = domain_head_->backward(domain_grad, ws);
      // Combine: grad_z_label lives in the label head's workspace slab and
      // grad_z_domain in the domain head's, so both stay valid here.
      grad_z.resize(m, z.cols());
      la::zip_into(grad_z_label, grad_z_domain, grad_z,
                   [lambda](double gl, double gd) { return gl - lambda * gd; });

      features_->backward(grad_z, ws);
      nn::clip_grad_norm(params, 5.0);
      optimizer.step();
    }
  }
}

la::Matrix Dann::predict_proba(const la::Matrix& x_raw) {
  FSDA_CHECK_MSG(features_ != nullptr, "predict before fit");
  const la::Matrix x = scaler_.transform(x_raw);
  nn::Workspace ws;  // call-local scoring scratch (DESIGN.md §7)
  const la::Matrix& z = features_->forward(x, /*training=*/false, ws);
  return nn::softmax_rows(label_head_->forward(z, /*training=*/false, ws));
}

}  // namespace fsda::baselines
