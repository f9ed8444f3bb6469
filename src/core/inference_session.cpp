#include "core/inference_session.hpp"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/health.hpp"
#include "la/kernels.hpp"
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
    std::shared_ptr<const models::Classifier> classifier,
    std::size_t num_classes, Reconstructor* reconstructor,
    const SeparationResult& sep, const AssemblyMap& map,
    std::size_t monte_carlo_m, bool use_reconstruction) {
  FSDA_CHECK_MSG(classifier != nullptr, "InferenceSession over no classifier");
  FSDA_CHECK(map.from_recon.size() == map.src.size());
  std::optional<nn::InferencePlan> clf_plan;
  const auto* mlp =
      dynamic_cast<const models::MLPClassifier*>(classifier.get());
  if (mlp != nullptr && mlp->network() != nullptr) {
    clf_plan = nn::InferencePlan::compile(*mlp->network(),
                                          mlp->num_features(),
                                          /*append_softmax=*/true);
  }
  if (clf_plan.has_value()) {
    FSDA_CHECK(clf_plan->out_features() == num_classes);
    FSDA_CHECK_MSG(map.src.size() == clf_plan->in_features(),
                   "assembly map has " << map.src.size()
                                       << " columns, classifier takes "
                                       << clf_plan->in_features());
  }

  std::unique_ptr<InferenceSession> s(new InferenceSession());
  s->num_classes_ = num_classes;
  s->monte_carlo_m_ = std::max<std::size_t>(monte_carlo_m, 1);
  if (clf_plan.has_value()) {
    s->clf_plan_ = std::move(clf_plan);
  } else {
    s->classifier_ = std::move(classifier);
  }
  s->map_ = map;

  const bool any_recon =
      std::any_of(map.from_recon.begin(), map.from_recon.end(),
                  [](char c) { return c != 0; });
  if (!use_reconstruction || !any_recon) {
    FSDA_CHECK_MSG(!any_recon,
                   "assembly map asks for reconstructed columns in FS mode");
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

  FSDA_CHECK_MSG(reconstructor != nullptr,
                 "assembly map asks for reconstructed columns of no "
                 "reconstructor");
  const ServingStage stage = reconstructor->serving_stage();
  const std::size_t inv = sep.invariant.size();
  s->var_dim_ = sep.variant.size();
  s->noise_dim_ = stage.noise_dim;
  s->noise_stream_ = stage.noise_stream;
  FSDA_CHECK(s->noise_dim_ == 0 || s->noise_stream_ != nullptr);
  if (stage.net != nullptr) {
    s->gen_plan_ = nn::InferencePlan::compile(*stage.net, inv + s->noise_dim_);
    FSDA_CHECK_MSG(s->gen_plan_.has_value(),
                   reconstructor->name() << " network does not compile");
    FSDA_CHECK_MSG(s->gen_plan_->out_features() == s->var_dim_,
                   reconstructor->name()
                       << " writes " << s->gen_plan_->out_features()
                       << " columns, partition has " << s->var_dim_);
  } else {
    FSDA_CHECK_MSG(stage.mean_impute != nullptr,
                   reconstructor->name() << " exposes no serving stage");
    s->impute_ = stage.mean_impute;
  }

  s->mode_ = Mode::Reconstruct;
  s->cols_ = sep.invariant;
  for (std::size_t j = 0; j < map.src.size(); ++j) {
    if (map.from_recon[j] != 0) {
      FSDA_CHECK(map.src[j] < s->var_dim_);
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

void InferenceSession::classify(la::ConstMatrixView in, la::MatrixView out,
                                ServeContext::Chunk& chunk) const {
  if (clf_plan_.has_value()) {
    clf_plan_->run(in, out, chunk.clf_ws);
    return;
  }
  la::Matrix rows = la::Matrix::uninit(in.rows(), in.cols());
  la::copy_into(in, rows);
  la::copy_into(classifier_->predict_proba(rows), out);
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
    if (s.clf_plan_.has_value()) s.clf_plan_->reserve(rows, c.clf_ws);
    if (s.gen_plan_.has_value()) s.gen_plan_->reserve(rows, c.gen_ws);
  }
  switch (s.mode_) {
    case Mode::Direct:
      break;
    case Mode::Select:
      selected_.resize(rows, s.cols_.size());
      break;
    case Mode::Reconstruct: {
      assembled_.resize(rows, s.map_.src.size());
      g_in_.resize(rows, s.cols_.size() + s.noise_dim_);
      if (!s.map_.identity) recon_.resize(rows, s.var_dim_);
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
  // dangle.
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
        classify(in.row_block(b, e - b),
                 la::MatrixView(proba).row_block(b, e - b), c);
      });
      break;
    }
    case Mode::Reconstruct: {
      const std::size_t inv = cols_.size();
      const std::size_t var = var_dim_;
      const std::size_t nz = noise_dim_;
      ctx.assembled_.resize(rows, map_.src.size());
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
      common::Rng& noise =
          ctx.reconstructor_stream_ ? *noise_stream_ : ctx.rng_;
      for (std::size_t m = 0; m < monte_carlo_m_; ++m) {
        draws_total.inc();
        recon_rows_total.inc(rows);
        // Noise is drawn serially, row-major as reconstruct() draws it,
        // before any chunk runs, and chunks only read it, so split and
        // inline execution are bitwise-identical.
        if (nz > 0) {
          la::MatrixView z = la::MatrixView(ctx.g_in_).col_block(inv, nz);
          for (std::size_t r = 0; r < rows; ++r) {
            double* zr = z.row_data(r);
            for (std::size_t k = 0; k < nz; ++k) zr[k] = noise.normal();
          }
        }
        la::Matrix& dst = m == 0 ? proba : ctx.mc_tmp_;
        dst.resize(rows, num_classes_);
        for_chunks([&](std::size_t b, std::size_t e, ServeContext::Chunk& c) {
          const std::size_t n = e - b;
          const la::ConstMatrixView g_in =
              la::ConstMatrixView(ctx.g_in_).row_block(b, n);
          // With the identity map the stage writes its rows straight into
          // the variant block of the assembled classifier input; otherwise
          // into the recon buffer, whose mapped columns are then scattered
          // into the trained input order.
          const la::MatrixView recon =
              map_.identity
                  ? la::MatrixView(ctx.assembled_).row_block(b, n).col_block(
                        inv, var)
                  : la::MatrixView(ctx.recon_).row_block(b, n);
          if (gen_plan_.has_value()) {
            gen_plan_->run(g_in, recon, c.gen_ws);
          } else {
            impute_->impute_rows(g_in, recon);
          }
          if (!map_.identity) {
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
          classify(la::ConstMatrixView(ctx.assembled_).row_block(b, n),
                   la::MatrixView(dst).row_block(b, n), c);
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
