#include "core/inference_session.hpp"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/cgan.hpp"
#include "la/view.hpp"
#include "models/neural.hpp"
#include "obs/metrics.hpp"

namespace fsda::core {

namespace {

/// dst(r, i) = x(r, cols[i]) -- the view-level equivalent of select_cols.
void gather_cols(const la::Matrix& x, const std::vector<std::size_t>& cols,
                 la::MatrixView dst) {
  const la::ConstMatrixView xv(x);
  for (std::size_t r = 0; r < xv.rows(); ++r) {
    const double* in = xv.row_data(r);
    double* out = dst.row_data(r);
    for (std::size_t i = 0; i < cols.size(); ++i) out[i] = in[cols[i]];
  }
}

}  // namespace

AssemblyMap AssemblyMap::build(const std::vector<std::size_t>& trained_order,
                               const SeparationResult& sep,
                               bool with_reconstructor) {
  AssemblyMap map;
  map.src.reserve(trained_order.size());
  map.from_recon.assign(trained_order.size(), 0);
  std::unordered_map<std::size_t, std::size_t> var_pos;
  if (with_reconstructor) {
    for (std::size_t k = 0; k < sep.variant.size(); ++k) {
      var_pos.emplace(sep.variant[k], k);
    }
  }
  for (std::size_t j = 0; j < trained_order.size(); ++j) {
    const auto it = var_pos.find(trained_order[j]);
    if (it != var_pos.end()) {
      map.src.push_back(it->second);
      map.from_recon[j] = 1;
    } else {
      map.src.push_back(trained_order[j]);
    }
  }
  // Identity iff the map is exactly [sep.invariant raw | recon 0..var):
  // the trained partition IS the serving partition.
  map.identity =
      with_reconstructor &&
      trained_order.size() == sep.invariant.size() + sep.variant.size();
  for (std::size_t j = 0; j < sep.invariant.size() && map.identity; ++j) {
    if (map.from_recon[j] != 0 || map.src[j] != sep.invariant[j]) {
      map.identity = false;
    }
  }
  for (std::size_t k = 0; k < sep.variant.size() && map.identity; ++k) {
    const std::size_t j = sep.invariant.size() + k;
    if (map.from_recon[j] == 0 || map.src[j] != k) map.identity = false;
  }
  return map;
}

std::unique_ptr<InferenceSession> InferenceSession::build(
    models::Classifier& classifier, Reconstructor* reconstructor,
    const SeparationResult& sep, const AssemblyMap& map,
    std::size_t monte_carlo_m, bool use_reconstruction) {
  auto* mlp = dynamic_cast<models::MLPClassifier*>(&classifier);
  if (mlp == nullptr || mlp->network() == nullptr) return nullptr;
  auto clf_plan = nn::InferencePlan::compile(*mlp->network(),
                                             mlp->num_features(),
                                             /*append_softmax=*/true);
  if (!clf_plan.has_value()) return nullptr;
  if (map.src.size() != clf_plan->in_features() ||
      map.from_recon.size() != map.src.size()) {
    return nullptr;
  }

  std::unique_ptr<InferenceSession> s(new InferenceSession());
  s->num_classes_ = mlp->num_classes();
  s->monte_carlo_m_ = std::max<std::size_t>(monte_carlo_m, 1);
  s->clf_plan_ = std::move(clf_plan);
  s->map_ = map;

  const bool needs_recon =
      use_reconstruction &&
      std::any_of(map.from_recon.begin(), map.from_recon.end(),
                  [](char c) { return c != 0; });
  if (!needs_recon) {
    if (std::any_of(map.from_recon.begin(), map.from_recon.end(),
                    [](char c) { return c != 0; })) {
      return nullptr;  // map asks for reconstructed columns we can't serve
    }
    s->cols_ = map.src;
    bool contiguous = true;
    for (std::size_t j = 0; j < s->cols_.size(); ++j) {
      if (s->cols_[j] != j) contiguous = false;
    }
    s->mode_ = contiguous ? Mode::Direct : Mode::Select;
    for (const std::size_t c : s->cols_) {
      s->min_input_cols_ = std::max(s->min_input_cols_, c + 1);
    }
    return s;
  }

  auto* gan = dynamic_cast<ConditionalGAN*>(reconstructor);
  if (gan == nullptr || gan->generator_network() == nullptr) return nullptr;
  if (gan->inv_dim() != sep.invariant.size() ||
      gan->var_dim() != sep.variant.size()) {
    return nullptr;
  }
  auto gen_plan = nn::InferencePlan::compile(
      *gan->generator_network(), gan->inv_dim() + gan->noise_dim());
  if (!gen_plan.has_value()) return nullptr;
  if (gen_plan->out_features() != gan->var_dim()) return nullptr;

  s->mode_ = Mode::Reconstruct;
  s->gan_ = gan;
  s->gen_plan_ = std::move(gen_plan);
  s->cols_ = sep.invariant;
  for (std::size_t j = 0; j < map.src.size(); ++j) {
    if (map.from_recon[j] != 0) {
      if (map.src[j] >= gan->var_dim()) return nullptr;
      s->recon_dst_.push_back(j);
      s->recon_src_.push_back(map.src[j]);
    } else {
      s->raw_dst_.push_back(j);
      s->raw_src_.push_back(map.src[j]);
      s->min_input_cols_ = std::max(s->min_input_cols_, map.src[j] + 1);
    }
  }
  for (const std::size_t c : s->cols_) {
    s->min_input_cols_ = std::max(s->min_input_cols_, c + 1);
  }
  return s;
}

namespace {

/// Row chunks a batch of `rows` rows splits into: one per pool participant
/// at and above kParallelRows, one (inline) below it or when the caller
/// already occupies a pool participant slot.
std::size_t chunk_count(std::size_t rows) {
  if (rows < InferenceSession::kParallelRows ||
      common::ThreadPool::in_worker()) {
    return 1;
  }
  return std::min(common::ThreadPool::global().concurrency(), rows);
}

}  // namespace

void InferenceSession::ServeContext::reserve(std::size_t rows) {
  if (rows == 0) return;
  const InferenceSession& s = *owner_;
  // Every chunk workspace is reserved for the full row count, which no
  // chunk can exceed, so any batch size <= rows runs allocation-free.
  const std::size_t chunks =
      rows >= kParallelRows ? common::ThreadPool::global().concurrency() : 1;
  if (chunks_.size() < chunks) chunks_.resize(chunks);
  for (Chunk& c : chunks_) {
    s.clf_plan_->reserve(rows, c.clf_ws);
    if (s.gen_plan_.has_value()) s.gen_plan_->reserve(rows, c.gen_ws);
  }
  switch (s.mode_) {
    case Mode::Direct:
      break;
    case Mode::Select:
      selected_.resize(rows, s.cols_.size());
      break;
    case Mode::Reconstruct: {
      const std::size_t inv = s.cols_.size();
      const std::size_t nz = s.gan_->noise_dim();
      assembled_.resize(rows, s.clf_plan_->in_features());
      g_in_.resize(rows, inv + nz);
      noise_.resize(rows, nz);
      if (!s.map_.identity) recon_.resize(rows, s.gan_->var_dim());
      if (s.monte_carlo_m_ > 1) mc_tmp_.resize(rows, s.num_classes_);
      break;
    }
  }
}

std::unique_ptr<InferenceSession::ServeContext>
InferenceSession::create_serve_context(std::uint64_t noise_seed) const {
  return std::unique_ptr<ServeContext>(new ServeContext(this, noise_seed));
}

std::unique_ptr<InferenceSession::ServeContext>
InferenceSession::create_serve_context() const {
  return std::unique_ptr<ServeContext>(new ServeContext(this, std::nullopt));
}

void InferenceSession::predict_proba_scaled(const la::Matrix& x,
                                            la::Matrix& proba,
                                            ServeContext& ctx) const {
  FSDA_CHECK_MSG(ctx.owner_ == this,
                 "ServeContext bound to a different InferenceSession");
  // Static handles: the registry is leaked, so these references never
  // dangle.  The recon.* counters are the ones the layer path bumps, so
  // dashboards agree across paths.
  static auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& samples_total = registry.counter(
      "inference.samples_total",
      "samples served through the packed inference session");
  static obs::HdrHistogram& batch_latency_ms = registry.hdr(
      "inference.batch_latency_ms", obs::HdrOptions{},
      "inference session batch latency (ms), log-linear quantile histogram");
  static obs::Gauge& samples_per_second = registry.gauge(
      "inference.samples_per_second",
      "throughput of the most recent inference session batch");
  static obs::Counter& draws_total = registry.counter(
      "recon.draws_total", "Monte-Carlo reconstruction draws performed");
  static obs::Counter& recon_rows_total = registry.counter(
      "recon.rows_total", "rows passed through the reconstructor");
  common::Stopwatch timer;
  const std::size_t rows = x.rows();
  proba.resize(rows, num_classes_);
  if (rows == 0) return;
  FSDA_CHECK_MSG(x.cols() >= min_input_cols_,
                 "InferenceSession: batch has " << x.cols()
                                                << " columns, gathers need "
                                                << min_input_cols_);

  // Runs body(begin, end, chunk) over [0, rows): inline as one chunk, or
  // split across the pool with each chunk on its own context workspaces.
  // The chunk vector is sized here, before any chunk runs.
  const std::size_t chunks = chunk_count(rows);
  if (ctx.chunks_.size() < chunks) ctx.chunks_.resize(chunks);
  auto for_chunks = [&](auto&& body) {
    if (chunks == 1) {
      body(std::size_t{0}, rows, ctx.chunks_[0]);
      return;
    }
    const std::size_t step = (rows + chunks - 1) / chunks;
    const std::size_t used = (rows + step - 1) / step;
    common::parallel_for(used, [&](std::size_t c) {
      const std::size_t b = c * step;
      body(b, std::min(rows, b + step), ctx.chunks_[c]);
    });
  };

  switch (mode_) {
    case Mode::Direct:
    case Mode::Select: {
      la::ConstMatrixView in(x);
      if (mode_ == Mode::Select) {
        ctx.selected_.resize(rows, cols_.size());
        gather_cols(x, cols_, ctx.selected_);
        in = ctx.selected_;
      }
      for_chunks([&](std::size_t b, std::size_t e, ServeContext::Chunk& c) {
        clf_plan_->run(in.row_block(b, e - b),
                       la::MatrixView(proba).row_block(b, e - b), c.clf_ws);
      });
      break;
    }
    case Mode::Reconstruct: {
      const std::size_t inv = cols_.size();
      const std::size_t var = gan_->var_dim();
      const std::size_t nz = gan_->noise_dim();
      ctx.assembled_.resize(rows, clf_plan_->in_features());
      ctx.g_in_.resize(rows, inv + nz);
      gather_cols(x, cols_, la::MatrixView(ctx.g_in_).col_block(0, inv));
      if (map_.identity) {
        gather_cols(x, cols_,
                    la::MatrixView(ctx.assembled_).col_block(0, inv));
      } else {
        // Raw columns are draw-invariant: scatter them once per batch.
        const la::ConstMatrixView xv(x);
        la::MatrixView av(ctx.assembled_);
        for (std::size_t r = 0; r < rows; ++r) {
          const double* in = xv.row_data(r);
          double* out = av.row_data(r);
          for (std::size_t i = 0; i < raw_dst_.size(); ++i) {
            out[raw_dst_[i]] = in[raw_src_[i]];
          }
        }
        ctx.recon_.resize(rows, var);
      }
      for (std::size_t m = 0; m < monte_carlo_m_; ++m) {
        draws_total.inc();
        recon_rows_total.inc(rows);
        // Noise is drawn serially before any chunk runs, and chunks only
        // read it, so split and inline execution are bitwise-identical.
        if (ctx.reconstructor_stream_) {
          gan_->sample_noise_into(rows, ctx.noise_);
        } else {
          gan_->sample_noise_into(rows, ctx.noise_, ctx.rng_);
        }
        la::MatrixView zdst = la::MatrixView(ctx.g_in_).col_block(inv, nz);
        const la::ConstMatrixView zsrc(ctx.noise_);
        for (std::size_t r = 0; r < rows; ++r) {
          std::copy_n(zsrc.row_data(r), nz, zdst.row_data(r));
        }
        la::Matrix& dst = m == 0 ? proba : ctx.mc_tmp_;
        dst.resize(rows, num_classes_);
        for_chunks([&](std::size_t b, std::size_t e, ServeContext::Chunk& c) {
          const std::size_t n = e - b;
          const la::ConstMatrixView g_in =
              la::ConstMatrixView(ctx.g_in_).row_block(b, n);
          if (map_.identity) {
            // The generator writes its rows straight into the variant block
            // of the assembled classifier input -- no hcat, no copies.
            gen_plan_->run(
                g_in,
                la::MatrixView(ctx.assembled_).col_block(inv, var).row_block(b,
                                                                             n),
                c.gen_ws);
          } else {
            // Cross-partition map: generate into the recon buffer, then
            // scatter the mapped columns into the trained input order.
            gen_plan_->run(g_in, la::MatrixView(ctx.recon_).row_block(b, n),
                           c.gen_ws);
            const la::ConstMatrixView rv(ctx.recon_);
            la::MatrixView av(ctx.assembled_);
            for (std::size_t r = b; r < e; ++r) {
              const double* in = rv.row_data(r);
              double* out = av.row_data(r);
              for (std::size_t i = 0; i < recon_dst_.size(); ++i) {
                out[recon_dst_[i]] = in[recon_src_[i]];
              }
            }
          }
          clf_plan_->run(la::ConstMatrixView(ctx.assembled_).row_block(b, n),
                         la::MatrixView(dst).row_block(b, n), c.clf_ws);
        });
        if (m > 0) proba += ctx.mc_tmp_;
      }
      proba *= 1.0 / static_cast<double>(monte_carlo_m_);
      break;
    }
  }

  samples_total.inc(rows);
  const double ms = timer.millis();
  batch_latency_ms.record(ms);
  samples_per_second.set(ms > 0.0 ? 1000.0 * static_cast<double>(rows) / ms
                                  : 0.0);
}

}  // namespace fsda::core
