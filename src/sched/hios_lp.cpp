#include <limits>

#include "graph/longest_path.h"
#include "sched/core/list_state.h"
#include "sched/placement.h"

namespace hios::sched {

Schedule place_longest_path(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                            const SchedulerConfig& config) {
  HIOS_CHECK(config.num_gpus >= 1, "HIOS-LP needs >= 1 GPU");
  const int m = config.num_gpus;

  // Incremental objective: each path-on-GPU trial only touches the path's
  // nodes, so the list schedule is recomputed from the earliest changed
  // priority rank instead of from scratch (Alg. 1 lines 7-16). The finder
  // likewise only revisits the still-unscheduled ops (Alg. 1 line 5).
  ListScheduleState trial(cg, m, cost);
  graph::ValidPathFinder paths(cg.graph(), cg.topo_order());

  while (const auto path = paths.next()) {
    // Try the path on every GPU; keep the one minimising the latency of the
    // list schedule over all mapped operators (ties go to the lowest GPU).
    int best_gpu = 0;
    double best_latency = std::numeric_limits<double>::infinity();
    for (int gpu = 0; gpu < m; ++gpu) {
      for (graph::NodeId v : path->nodes) trial.set_gpu(v, gpu);
      const double latency = trial.latency();
      if (gpu == 0 || latency < best_latency) {
        best_latency = latency;
        best_gpu = gpu;
      }
    }
    for (graph::NodeId v : path->nodes) trial.set_gpu(v, best_gpu);
  }

  // The list schedule of the final mapping: each GPU runs its nodes one per
  // stage in priority order (Alg. 1 line 1 orders them on the original G).
  Schedule placed(m);
  for (graph::NodeId v : cg.priority_order())
    placed.push_op(trial.mapping()[static_cast<std::size_t>(v)], v);
  return placed;
}

}  // namespace hios::sched
