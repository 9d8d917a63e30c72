#include <algorithm>
#include <limits>

#include "sched/placement.h"

namespace hios::sched {

Schedule place_mapping_recording(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                                 const SchedulerConfig& config) {
  HIOS_CHECK(config.num_gpus >= 1, "HIOS-MR needs >= 1 GPU");
  const graph::Graph& g = cg.graph();
  const int n = static_cast<int>(g.num_nodes());
  const int m = config.num_gpus;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (n == 0) return Schedule(m);

  // Line 1: v_1..v_n in descending priority (a topological order).
  const std::vector<graph::NodeId>& order = cg.priority_order();

  // Lines 2-5: the n x M table of (t_{i,j}, g_{i,j}).
  std::vector<std::vector<double>> t(static_cast<std::size_t>(n),
                                     std::vector<double>(static_cast<std::size_t>(m), kInf));
  std::vector<std::vector<int>> back(static_cast<std::size_t>(n),
                                     std::vector<int>(static_cast<std::size_t>(m), -1));
  t[0][0] = cost.node_time(g, order[0], 0);
  back[0][0] = 0;

  // Scratch for the backtracked partial schedule: finish time + GPU per
  // rank, and each GPU's last finish.
  std::vector<double> fin(static_cast<std::size_t>(n));
  std::vector<int> gpu_of(static_cast<std::size_t>(n));
  std::vector<double> tail(static_cast<std::size_t>(m));

  for (int i = 1; i < n; ++i) {
    const graph::NodeId vi = order[static_cast<std::size_t>(i)];
    const int j_max = std::min(m, i + 1);  // GPUs 0..min(M,i+1)-1
    const int k_max = std::min(m, i);
    // k outer, j inner: the recorded chain depends on k only, so it is
    // backtracked once per (i, k); for each j the k values are still
    // visited in ascending order under a strict <, so ties are unchanged.
    for (int k = 0; k < k_max; ++k) {
      if (t[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(k)] == kInf) continue;
      // Lines 9-12: reconstruct the recorded schedule of v_1..v_{i-1}
      // that ends with v_{i-1} on GPU k, and each GPU's last finish in it.
      std::ranges::fill(tail, 0.0);
      int cur = k;
      for (int l = i - 1; l >= 0; --l) {
        const double f = t[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
        fin[static_cast<std::size_t>(l)] = f;
        gpu_of[static_cast<std::size_t>(l)] = cur;
        tail[static_cast<std::size_t>(cur)] = std::max(tail[static_cast<std::size_t>(cur)], f);
        cur = back[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
      }
      bool feasible = true;
      for (graph::EdgeId e : cg.in_edges(vi)) {
        const int l = cg.rank(g.edge(e).src);
        HIOS_ASSERT(l < i, "priority order not topological");
        feasible = feasible && fin[static_cast<std::size_t>(l)] != kInf;
      }
      if (!feasible) continue;
      // Lines 13-19: earliest start of v_i on each GPU j under that schedule.
      for (int j = 0; j < j_max; ++j) {
        double start = tail[static_cast<std::size_t>(j)];
        for (graph::EdgeId e : cg.in_edges(vi)) {
          const int l = cg.rank(g.edge(e).src);
          const double arrival =
              fin[static_cast<std::size_t>(l)] +
              cost.transfer_time(g, e, gpu_of[static_cast<std::size_t>(l)], j);
          start = std::max(start, arrival);
        }
        const double finish = start + cost.node_time(g, vi, j);
        if (finish < t[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
          t[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = finish;
          back[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = k;
        }
      }
    }
  }

  // Lines 22-26: pick argmin_j t_{n,j} and backtrack the full chain.
  int best_j = 0;
  for (int j = 1; j < m; ++j) {
    if (t[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(j)] <
        t[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(best_j)])
      best_j = j;
  }
  HIOS_ASSERT(t[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(best_j)] < kInf,
              "HIOS-MR table incomplete");
  std::vector<int> final_gpu(static_cast<std::size_t>(n));
  int cur = best_j;
  for (int i = n - 1; i >= 0; --i) {
    final_gpu[static_cast<std::size_t>(i)] = cur;
    cur = back[static_cast<std::size_t>(i)][static_cast<std::size_t>(cur)];
  }
  Schedule schedule(m);
  for (int i = 0; i < n; ++i) {
    schedule.push_op(final_gpu[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(i)]);
  }
  return schedule;
}

}  // namespace hios::sched
