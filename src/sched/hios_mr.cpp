#include <algorithm>
#include <limits>

#include "sched/placement.h"

namespace hios::sched {

Schedule place_mapping_recording(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                                 const SchedulerConfig& config) {
  HIOS_CHECK(config.num_gpus >= 1, "HIOS-MR needs >= 1 GPU");
  const graph::Graph& g = cg.graph();
  const auto n = g.num_nodes();
  const int m = config.num_gpus;
  const auto um = static_cast<std::size_t>(m);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (n == 0) return Schedule(m);

  // Line 1: v_1..v_n in descending priority (a topological order).
  const std::vector<graph::NodeId>& order = cg.priority_order();

  // Lines 2-5: the n x M table of (t_{i,j}, g_{i,j}), row-major.
  std::vector<double> t(n * um, kInf);
  std::vector<int> back(n * um, -1);
  t[0] = cost.node_time(g, order[0], 0);
  back[0] = 0;

  // Each GPU's last finish in the recorded chain of every entry of the
  // previous row (`tails`, M x M) and of the current one (`next_tails`).
  // An entry's tails are its parent entry's with its own finish folded in:
  // max over the same finish times as a full backtrack, so bit-equal.
  std::vector<double> tails(um * um, 0.0), next_tails(um * um, 0.0);
  tails[0] = std::max(0.0, t[0]);

  // Scratch for the backtracked part of a chain: finish time + GPU per rank,
  // needed only from v_i's lowest predecessor rank up.
  std::vector<double> fin(n);
  std::vector<int> gpu_of(n);
  std::vector<std::size_t> pred_rank;

  for (std::size_t i = 1; i < n; ++i) {
    const graph::NodeId vi = order[i];
    const std::span<const graph::EdgeId> in = cg.in_edges(vi);
    pred_rank.clear();
    std::size_t lo = i;
    for (graph::EdgeId e : in) {
      const auto l = static_cast<std::size_t>(cg.rank(g.edge(e).src));
      HIOS_ASSERT(l < i, "priority order not topological");
      pred_rank.push_back(l);
      lo = std::min(lo, l);
    }
    const auto j_max = std::min(um, i + 1);  // GPUs 0..min(M,i+1)-1
    const auto k_max = std::min(um, i);
    double* row = t.data() + i * um;
    int* back_row = back.data() + i * um;
    // k outer, j inner: the recorded chain depends on k only, so it is
    // backtracked once per (i, k); for each j the k values are still
    // visited in ascending order under a strict <, so ties are unchanged.
    for (std::size_t k = 0; k < k_max; ++k) {
      if (t[(i - 1) * um + k] == kInf) continue;
      // Lines 9-12: the recorded schedule of v_1..v_{i-1} that ends with
      // v_{i-1} on GPU k. Every entry on a recorded chain is finite, so v_i's
      // predecessors are all placed in it.
      int cur = static_cast<int>(k);
      for (std::size_t l = i; l-- > lo;) {
        fin[l] = t[l * um + static_cast<std::size_t>(cur)];
        gpu_of[l] = cur;
        cur = back[l * um + static_cast<std::size_t>(cur)];
      }
      const double* tail = tails.data() + k * um;
      // Lines 13-19: earliest start of v_i on each GPU j under that schedule.
      for (std::size_t j = 0; j < j_max; ++j) {
        double start = tail[j];
        for (std::size_t p = 0; p < in.size(); ++p) {
          const std::size_t l = pred_rank[p];
          const double arrival =
              fin[l] + cost.transfer_time(g, in[p], gpu_of[l], static_cast<int>(j));
          start = std::max(start, arrival);
        }
        const double finish = start + cost.node_time(g, vi, static_cast<int>(j));
        if (finish < row[j]) {
          row[j] = finish;
          back_row[j] = static_cast<int>(k);
        }
      }
    }
    for (std::size_t j = 0; j < j_max; ++j) {
      if (row[j] == kInf) continue;
      double* own = next_tails.data() + j * um;
      std::copy_n(tails.data() + static_cast<std::size_t>(back_row[j]) * um, um, own);
      own[j] = std::max(own[j], row[j]);
    }
    tails.swap(next_tails);
  }

  // Lines 22-26: pick argmin_j t_{n,j} and backtrack the full chain.
  const double* last = t.data() + (n - 1) * um;
  const auto best_j = static_cast<int>(std::min_element(last, last + um) - last);
  HIOS_ASSERT(last[best_j] < kInf, "HIOS-MR table incomplete");
  std::vector<int> final_gpu(n);
  int cur = best_j;
  for (std::size_t i = n; i-- > 0;) {
    final_gpu[i] = cur;
    cur = back[i * um + static_cast<std::size_t>(cur)];
  }
  Schedule schedule(m);
  for (std::size_t i = 0; i < n; ++i) schedule.push_op(final_gpu[i], order[i]);
  return schedule;
}

}  // namespace hios::sched
