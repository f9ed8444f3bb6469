#include "causal/pc.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace fsda::causal {

namespace {

/// Applies the three Meek rules until fixpoint.
void apply_meek_rules(Graph& g) {
  const std::size_t n = g.num_nodes();
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (!g.has_undirected_edge(a, b)) continue;
        // Rule 1: c -> a -- b with c not adjacent to b  =>  a -> b
        bool oriented = false;
        for (std::size_t c : g.parents(a)) {
          if (c != b && !g.has_edge(c, b)) {
            g.orient(a, b);
            oriented = true;
            break;
          }
        }
        if (oriented) {
          changed = true;
          continue;
        }
        // Rule 2: a -> c -> b with a -- b  =>  a -> b
        for (std::size_t c : g.children(a)) {
          if (c != b && g.has_directed_edge(c, b)) {
            g.orient(a, b);
            oriented = true;
            break;
          }
        }
        if (oriented) {
          changed = true;
          continue;
        }
        // Rule 3: a -- c -> b and a -- d -> b with c,d non-adjacent  =>  a -> b
        const auto nbrs = g.neighbors(a);
        for (std::size_t ci = 0; ci < nbrs.size() && !oriented; ++ci) {
          const std::size_t c = nbrs[ci];
          if (!g.has_undirected_edge(a, c) || !g.has_directed_edge(c, b)) {
            continue;
          }
          for (std::size_t di = ci + 1; di < nbrs.size(); ++di) {
            const std::size_t d = nbrs[di];
            if (g.has_undirected_edge(a, d) && g.has_directed_edge(d, b) &&
                !g.has_edge(c, d)) {
              g.orient(a, b);
              oriented = true;
              changed = true;
              break;
            }
          }
        }
      }
    }
  }
}

}  // namespace

PcResult pc_algorithm(const CiTest& test, const PcOptions& options) {
  const std::size_t n = test.num_variables();
  FSDA_CHECK_MSG(n >= 2, "PC needs at least two variables");
  PcResult result{Graph(n), {}, 0, false};
  Graph& g = result.graph;
  // Start from the complete undirected graph.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) g.add_undirected_edge(i, j);
  }

  // Watchdog: past the deadline, stop issuing CI tests; untested edges
  // stay in the skeleton (best-so-far, conservative towards dependence).
  // The sticky flag is shared by every worker, matching the F-node search.
  common::Stopwatch deadline_timer;
  std::atomic<bool> deadline_hit{false};
  const auto past_deadline = [&]() -> bool {
    if (options.deadline_ms == 0) return false;
    if (deadline_hit.load(std::memory_order_relaxed)) return true;
    if (deadline_timer.millis() >= static_cast<double>(options.deadline_ms)) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  // Phase 1: skeleton by levelwise CI testing, PC-stable: the adjacency
  // sets feeding the conditioning pools are frozen at the start of each
  // level and removals are committed only after the whole level finishes,
  // so every edge's test sequence is independent of the order (and thread
  // interleaving) in which the other edges are processed.
  common::Stopwatch skeleton_timer;
  std::atomic<std::size_t> ci_tests{0};
  for (std::size_t level = 0;
       level <= options.max_condition_size && !past_deadline(); ++level) {
    // Frozen adjacency snapshot and the edge worklist for this level.
    std::vector<std::vector<std::size_t>> adjacency(n);
    for (std::size_t i = 0; i < n; ++i) adjacency[i] = g.neighbors(i);
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (g.has_edge(i, j)) edges.emplace_back(i, j);
      }
    }
    // Deferred outcomes, one slot per edge: workers write disjoint slots,
    // the commit below merges them at the level barrier.
    struct EdgeOutcome {
      bool separated = false;
      std::vector<std::size_t> sepset;
    };
    std::vector<EdgeOutcome> outcomes(edges.size());
    std::atomic<bool> any_candidate{false};

    auto process_edges = [&](std::size_t begin, std::size_t end) {
      // Conditioning-pool scratch, sized once per worker chunk: the
      // membership bitmap replaces the former std::find dedup (O(deg^2)
      // per edge) with O(deg) flag checks.
      std::vector<char> in_pool(n, 0);
      std::vector<std::size_t> pool;
      pool.reserve(n);
      for (std::size_t e = begin; e < end; ++e) {
        if (past_deadline()) break;  // remaining edges stay untested
        const auto [i, j] = edges[e];
        // Conditioning candidates: frozen neighbors of i or of j,
        // excluding each other.
        pool.clear();
        for (std::size_t v : adjacency[i]) {
          if (v != j) {
            in_pool[v] = 1;
            pool.push_back(v);
          }
        }
        for (std::size_t v : adjacency[j]) {
          if (v != i && !in_pool[v]) pool.push_back(v);
        }
        for (std::size_t v : pool) in_pool[v] = 0;
        if (pool.size() < level) continue;
        any_candidate.store(true, std::memory_order_relaxed);
        for_each_subset(pool, level, [&](std::span<const std::size_t> subset) {
          if (past_deadline()) return true;  // keep the edge, stop
          ci_tests.fetch_add(1, std::memory_order_relaxed);
          const CiResult ci = test.test(i, j, subset);
          if (ci.independent) {
            outcomes[e].separated = true;
            outcomes[e].sepset.assign(subset.begin(), subset.end());
            return true;
          }
          return false;
        });
      }
    };
    if (options.parallel) {
      common::parallel_for_chunked(edges.size(), process_edges);
    } else {
      process_edges(0, edges.size());
    }

    // Level barrier: commit removals and separating sets in edge order.
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (!outcomes[e].separated) continue;
      g.remove_edge(edges[e].first, edges[e].second);
      result.separating_sets[edges[e]] = std::move(outcomes[e].sepset);
    }
    if (!any_candidate.load()) break;
  }
  result.ci_tests_performed = ci_tests.load();
  result.truncated = deadline_hit.load();
  const double skeleton_seconds = skeleton_timer.seconds();

  // Phase 2: orient v-structures i -> k <- j when k is not in sepset(i, j).
  for (std::size_t k = 0; k < n; ++k) {
    const auto nbrs = g.neighbors(k);
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
        const std::size_t i = nbrs[a];
        const std::size_t j = nbrs[b];
        if (g.has_edge(i, j)) continue;  // not an unshielded triple
        const auto key = std::minmax(i, j);
        const auto it = result.separating_sets.find({key.first, key.second});
        const bool k_in_sepset =
            it != result.separating_sets.end() &&
            std::find(it->second.begin(), it->second.end(), k) !=
                it->second.end();
        if (!k_in_sepset) {
          if (g.has_undirected_edge(i, k)) g.orient(i, k);
          if (g.has_undirected_edge(j, k)) g.orient(j, k);
        }
      }
    }
  }

  // F-node constraint: the domain indicator was added manually and can have
  // no incoming causes from the system, i.e. no outgoing edges *from* system
  // variables into it -- in the paper's convention the F-node has no
  // outgoing edges removed from it; we orient every remaining F edge as
  // F -> X (interventions act on features, never the reverse).
  if (options.sink_node) {
    const std::size_t f = *options.sink_node;
    FSDA_CHECK_MSG(f < n, "sink node out of range");
    for (std::size_t x : g.neighbors(f)) {
      if (!g.has_directed_edge(f, x)) g.orient(f, x);
    }
  }

  // Phase 3: Meek propagation.
  apply_meek_rules(g);

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("pc.ci_tests_total", "CI tests run by the PC algorithm")
      .inc(result.ci_tests_performed);
  if (skeleton_seconds > 0.0 && result.ci_tests_performed > 0) {
    registry
        .gauge("pc.ci_tests_per_second",
               "CI-test throughput of the most recent PC skeleton phase")
        .set(static_cast<double>(result.ci_tests_performed) /
             skeleton_seconds);
  }
  if (result.truncated) {
    registry
        .counter("pc.truncations_total",
                 "PC runs cut short by their deadline")
        .inc();
  }
  obs::HdrHistogram& sepset_size = registry.hdr(
      "pc.sepset_size", obs::HdrOptions{},
      "separating-set sizes found during skeleton pruning");
  for (const auto& [edge, sepset] : result.separating_sets) {
    sepset_size.record(static_cast<double>(sepset.size()));
  }
  return result;
}

}  // namespace fsda::causal
