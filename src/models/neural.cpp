#include "models/neural.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/feature_gate.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace fsda::models {

std::vector<std::int64_t> argmax_rows(const la::Matrix& proba) {
  std::vector<std::int64_t> out(proba.rows());
  for (std::size_t r = 0; r < proba.rows(); ++r) {
    const auto row = proba.row(r);
    out[r] = static_cast<std::int64_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return out;
}

std::vector<std::int64_t> Classifier::predict(const la::Matrix& x) const {
  return argmax_rows(predict_proba(x));
}

MLPClassifier::MLPClassifier(std::uint64_t seed, NeuralOptions options,
                             bool feature_gate)
    : seed_(seed), options_(std::move(options)), feature_gate_(feature_gate) {
  FSDA_CHECK(options_.epochs > 0 && options_.batch_size > 0);
}

void MLPClassifier::build(std::size_t in, std::size_t out) {
  common::Rng rng(seed_ ^ 0x4E55ULL);
  net_ = std::make_unique<nn::Sequential>();
  if (feature_gate_) net_->emplace<nn::FeatureGate>(in);
  std::size_t width = in;
  for (std::size_t h : options_.hidden) {
    net_->emplace<nn::Linear>(width, h, rng);
    net_->emplace<nn::ReLU>();
    if (options_.dropout > 0.0) {
      net_->emplace<nn::Dropout>(options_.dropout, rng.split(h));
    }
    width = h;
  }
  net_->emplace<nn::Linear>(width, out, rng);
}

void MLPClassifier::run_epochs(const la::Matrix& x,
                               const std::vector<std::int64_t>& y,
                               const std::vector<double>& weights,
                               std::size_t epochs, double learning_rate) {
  const std::size_t n = x.rows();
  std::vector<double> w = weights;
  if (w.empty()) w.assign(n, 1.0);
  // Normalize weights to mean 1 so the learning rate is scale-free.
  const double mean_w =
      std::accumulate(w.begin(), w.end(), 0.0) / static_cast<double>(n);
  FSDA_CHECK_MSG(mean_w > 0.0, "all-zero sample weights");
  for (auto& v : w) v /= mean_w;

  nn::Adam optimizer(net_->parameters(), learning_rate, /*beta1=*/0.9,
                     /*beta2=*/0.999, /*eps=*/1e-8, options_.weight_decay);
  common::Rng rng(seed_ ^ 0x7EA12ULL);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  const std::size_t batch = std::min(options_.batch_size, n);
  // Training scratch, local to this run (DESIGN.md §7): capacities carry
  // from step to step, and everything is freed on return.
  nn::Workspace ws;
  la::Matrix xb;
  la::Matrix loss_grad;
  std::vector<std::int64_t> yb;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t end = std::min(n, start + batch);
      const std::span<const std::size_t> rows{order.data() + start,
                                              end - start};
      la::select_rows_into(x, rows, xb);
      yb.resize(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) yb[i] = y[rows[i]];

      optimizer.zero_grad();
      const la::Matrix& logits = net_->forward(xb, /*training=*/true, ws);
      const double loss = nn::softmax_cross_entropy_into(logits, yb, loss_grad);
      // Apply per-sample weights by scaling gradient rows; the scalar loss
      // reported stays unweighted for readability.
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const double wi = w[rows[i]];
        if (wi == 1.0) continue;
        auto grow = loss_grad.row(i);
        for (auto& g : grow) g *= wi;
      }
      // The input gradient is never used: the first layer skips it.
      ws.set_input_grad_enabled(false);
      net_->backward(loss_grad, ws);
      ws.set_input_grad_enabled(true);
      optimizer.step();
      epoch_loss += loss;
      ++batches;
    }
    last_loss_ = epoch_loss / static_cast<double>(std::max<std::size_t>(
                                  1, batches));
  }
}

void MLPClassifier::fit(const la::Matrix& x,
                        const std::vector<std::int64_t>& y,
                        std::size_t num_classes,
                        const std::vector<double>& weights) {
  FSDA_CHECK_MSG(x.rows() > 0, "fit on empty data");
  FSDA_CHECK(y.size() == x.rows());
  num_classes_ = num_classes;
  num_features_ = x.cols();
  build(num_features_, num_classes_);
  run_epochs(x, y, weights, options_.epochs, options_.learning_rate);
}

void MLPClassifier::fine_tune(const la::Matrix& x,
                              const std::vector<std::int64_t>& y,
                              std::size_t epochs, double learning_rate,
                              const std::vector<double>& weights) {
  FSDA_CHECK_MSG(net_ != nullptr, "fine_tune before fit");
  FSDA_CHECK_MSG(x.cols() == num_features_, "feature width changed");
  run_epochs(x, y, weights, epochs, learning_rate);
}

la::Matrix MLPClassifier::predict_proba(const la::Matrix& x) const {
  FSDA_CHECK_MSG(net_ != nullptr, "predict before fit");
  FSDA_CHECK_MSG(x.cols() == num_features_, "feature width mismatch");
  // Call-local scoring scratch, one row block deep (DESIGN.md §7): a
  // trained classifier keeps no batch-sized buffers between calls.
  la::Matrix proba;
  nn::Workspace ws;
  nn::forward_rows_into(const_cast<nn::Sequential&>(*net_), {x}, proba, ws);
  nn::softmax_rows_into(proba, proba);
  return proba;
}

}  // namespace fsda::models
