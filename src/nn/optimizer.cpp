#include "nn/optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "la/gemm.hpp"
#include "la/optim_kernels.hpp"

namespace fsda::nn {

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  FSDA_CHECK_MSG(lr > 0.0, "non-positive learning rate");
  FSDA_CHECK(beta1 >= 0.0 && beta1 < 1.0 && beta2 >= 0.0 && beta2 < 1.0);
  offsets_.reserve(params_.size() + 1);
  offsets_.push_back(0);
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    FSDA_CHECK_MSG(p != nullptr, "null parameter");
    offsets_.push_back(offsets_.back() + p->value.size());
    m_.emplace_back(p->value.rows(), p->value.cols(), 0.0);
    v_.emplace_back(p->value.rows(), p->value.cols(), 0.0);
  }
}

template <typename Fn>
void Adam::sweep(const Fn& fn) {
  // [begin, end) of the concatenation maps back to (parameter, offset)
  // runs.  Elements are independent, so any split is bit-identical to a
  // serial sweep.
  const auto run = [&](std::size_t begin, std::size_t end) {
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), begin) -
        offsets_.begin() - 1);
    for (std::size_t pos = begin; pos < end; ++i) {
      const std::size_t off = pos - offsets_[i];
      const std::size_t len = std::min(end, offsets_[i + 1]) - pos;
      fn(i, off, len);
      pos += len;
    }
  };
  const std::size_t total = offsets_.back();
  if (total >= la::kParallelAdamElements) {
    common::parallel_for_chunked(total, run);
  } else {
    run(0, total);
  }
}

void Adam::zero_grad() {
  sweep([this](std::size_t i, std::size_t off, std::size_t len) {
    std::fill_n(params_[i]->grad.data().data() + off, len, 0.0);
  });
}

void Adam::step() {
  ++t_;
  la::AdamStepConstants c;
  c.lr = lr_;
  c.beta1 = beta1_;
  c.beta2 = beta2_;
  c.eps = eps_;
  c.weight_decay = weight_decay_;
  c.bias_corr1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  c.bias_corr2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // The scalar and AVX2 kernels agree bitwise at any split point, so the
  // pool sweep is bit-identical to a serial one.
  sweep([&](std::size_t i, std::size_t off, std::size_t len) {
    la::fused_adam_update(params_[i]->value.data().data() + off,
                          m_[i].data().data() + off,
                          v_[i].data().data() + off,
                          params_[i]->grad.data().data() + off, len, c);
  });
  for (Parameter* p : params_) p->bump_version();
}

double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm) {
  FSDA_CHECK_MSG(max_norm > 0.0, "non-positive clip norm");
  double total = 0.0;
  for (Parameter* p : params) {
    for (double g : p->grad.data()) total += g * g;
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (Parameter* p : params) {
      for (auto& g : p->grad.data()) g *= scale;
    }
  }
  return norm;
}

}  // namespace fsda::nn
