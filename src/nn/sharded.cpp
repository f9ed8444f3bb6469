#include "nn/sharded.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "la/kernels.hpp"

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

}  // namespace fsda::nn
