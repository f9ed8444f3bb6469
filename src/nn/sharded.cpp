#include "nn/sharded.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "la/kernels.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dropout.hpp"

namespace fsda::nn {

std::size_t resolve_shard_count(std::size_t requested, std::size_t rows,
                                std::size_t min_rows_per_shard) {
  std::size_t count =
      requested == 0 ? common::ThreadPool::global().concurrency() : requested;
  if (min_rows_per_shard > 0) {
    count = std::min(count, rows / min_rows_per_shard);
  }
  return std::max<std::size_t>(count, 1);
}

ShardRange shard_range(std::size_t rows, std::size_t count,
                       std::size_t shard) {
  FSDA_CHECK_MSG(count > 0 && shard < count, "shard index out of range");
  const std::size_t base = rows / count;
  const std::size_t rem = rows % count;
  const std::size_t begin =
      shard * base + std::min<std::size_t>(shard, rem);
  const std::size_t len = base + (shard < rem ? 1 : 0);
  return {begin, begin + len};
}

void run_sharded(std::size_t count, bool parallel,
                 const std::function<void(std::size_t)>& fn) {
  if (count == 1) {
    fn(0);
    return;
  }
  if (parallel) {
    common::parallel_for(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

void broadcast_parameters(const std::vector<Parameter*>& master,
                          const std::vector<Parameter*>& replica) {
  FSDA_CHECK_MSG(master.size() == replica.size(),
                 "broadcast: replica has " << replica.size()
                                           << " parameters, master "
                                           << master.size());
  for (std::size_t i = 0; i < master.size(); ++i) {
    const Parameter& m = *master[i];
    Parameter& r = *replica[i];
    if (r.version == m.version) continue;  // unchanged since last broadcast
    FSDA_CHECK_MSG(r.value.rows() == m.value.rows() &&
                       r.value.cols() == m.value.cols(),
                   "broadcast: parameter shape mismatch");
    la::copy_into(m.value, r.value);
    // Replicas never step, so adopting the master's version exactly tracks
    // "value equals master's value of this version".
    r.version = m.version;
  }
}

void reduce_shard_gradients(
    const std::vector<Parameter*>& master,
    const std::vector<std::vector<Parameter*>>& shards) {
  const std::size_t count = shards.size();
  if (count == 0) return;
  for (const auto& shard : shards) {
    FSDA_CHECK_MSG(shard.size() == master.size(),
                   "reduce: shard parameter count mismatch");
  }
  // Fixed pairwise tree: pass 1 folds 1->0, 3->2, ...; pass 2 folds 2->0,
  // 6->4, ...; independent of shard execution order, and the log-depth
  // pairing keeps magnitudes balanced compared to a left fold.
  for (std::size_t step = 1; step < count; step *= 2) {
    for (std::size_t i = 0; i + step < count; i += 2 * step) {
      for (std::size_t p = 0; p < master.size(); ++p) {
        shards[i][p]->grad += shards[i + step][p]->grad;
      }
    }
  }
  for (std::size_t p = 0; p < master.size(); ++p) {
    master[p]->grad += shards[0][p]->grad;
  }
}

namespace {
void collect_layers_into(Layer& layer, std::vector<Layer*>& out) {
  out.push_back(&layer);
  layer.for_each_child(
      [&out](Layer& child) { collect_layers_into(child, out); });
}
}  // namespace

std::vector<Layer*> collect_layers(Layer& root) {
  std::vector<Layer*> out;
  collect_layers_into(root, out);
  return out;
}

void reseed_dropouts(Layer& root, common::Rng rng) {
  std::uint64_t index = 0;
  for (Layer* layer : collect_layers(root)) {
    if (auto* dropout = dynamic_cast<Dropout*>(layer)) {
      dropout->reseed(rng.split(++index));
    }
  }
}

void GhostBatchNormSync::bind(Layer& master,
                              const std::vector<Layer*>& replicas) {
  entries_.clear();
  std::vector<BatchNorm1d*> master_bns;
  for (Layer* layer : collect_layers(master)) {
    if (auto* bn = dynamic_cast<BatchNorm1d*>(layer)) master_bns.push_back(bn);
  }
  entries_.resize(master_bns.size());
  for (std::size_t i = 0; i < master_bns.size(); ++i) {
    entries_[i].master = master_bns[i];
  }
  for (Layer* replica : replicas) {
    std::size_t i = 0;
    for (Layer* layer : collect_layers(*replica)) {
      if (auto* bn = dynamic_cast<BatchNorm1d*>(layer)) {
        FSDA_CHECK_MSG(i < entries_.size(),
                       "replica has more BatchNorm layers than master");
        entries_[i++].replicas.push_back(bn);
      }
    }
    FSDA_CHECK_MSG(i == entries_.size(),
                   "replica has fewer BatchNorm layers than master");
  }
}

void GhostBatchNormSync::update(const std::vector<ShardRange>& ranges) {
  if (entries_.empty()) return;
  double total = 0.0;
  for (const ShardRange& range : ranges) {
    total += static_cast<double>(range.second - range.first);
  }
  if (total <= 0.0) return;
  for (Entry& entry : entries_) {
    // A tail batch may resolve to fewer shards than replicas exist; only
    // the first ranges.size() replicas ran.
    FSDA_CHECK_MSG(ranges.size() <= entry.replicas.size(),
                   "GhostBatchNormSync: more ranges than replicas");
    bool used = true;
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      used = used && entry.replicas[r]->last_used_batch_stats();
    }
    if (!used) continue;  // eval-mode or degenerate forward; nothing to fold
    const std::size_t d = entry.replicas.front()->last_batch_mean().cols();
    mean_.resize(1, d);
    var_.resize(1, d);
    mean_.fill(0.0);
    var_.fill(0.0);
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      const double w =
          static_cast<double>(ranges[r].second - ranges[r].first) / total;
      const la::Matrix& sm = entry.replicas[r]->last_batch_mean();
      const la::Matrix& sv = entry.replicas[r]->last_batch_var();
      for (std::size_t c = 0; c < d; ++c) {
        mean_(0, c) += w * sm(0, c);
        var_(0, c) += w * (sv(0, c) + sm(0, c) * sm(0, c));
      }
    }
    for (std::size_t c = 0; c < d; ++c) {
      // Exact full-batch (biased) variance; clamp guards rounding-induced
      // tiny negatives when the batch is nearly constant.
      var_(0, c) = std::max(var_(0, c) - mean_(0, c) * mean_(0, c), 0.0);
    }
    entry.master->apply_running_update(mean_, var_);
  }
}

}  // namespace fsda::nn
