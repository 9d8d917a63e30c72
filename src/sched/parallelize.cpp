#include "sched/parallelize.h"

#include <optional>
#include <utility>

#include "cost/stage_cache.h"
#include "sched/core/schedule_state.h"

namespace hios::sched {

ParallelizeResult parallelize(const graph::CompiledGraph& cg, Schedule schedule,
                              const cost::CostModel& cost, int window) {
  const graph::Graph& g = cg.graph();
  ParallelizeResult result;

  ScheduleState state(cg, cost);
  state.load(schedule);
  auto base = state.evaluate_latency();
  HIOS_CHECK(base.has_value(), "parallelize: input schedule deadlocks");
  double latency = *base;

  if (window >= 2 && g.num_nodes() >= 2) {
    const std::vector<graph::NodeId>& order = cg.priority_order();
    // Every op but the last in priority order opens a window.
    for (std::size_t oi = 0; oi + 1 < order.size(); ++oi) {
      const int sid = state.stage_of(order[oi]);
      HIOS_ASSERT(sid >= 0, "node " << order[oi] << " not found in schedule");
      if (state.stage_ops(sid).size() > 1) continue;  // already grouped
      const int gpu = state.gpu_of_stage(sid);
      const int pos = state.position_of(sid);

      // Window sizes 2..w ops; extend one succeeding stage at a time and
      // score each candidate with apply -> evaluate -> undo.
      double best_latency = latency;
      int best_extent = 0;
      std::size_t total_ops = 1;  // the ungrouped op itself
      for (int extent = 1; pos + extent < state.stage_count(gpu); ++extent) {
        total_ops += state.stage_ops(state.stage_at(gpu, pos + extent)).size();
        if (total_ops > static_cast<std::size_t>(window)) break;
        // All stages in the window must be pairwise independent.
        bool ok = true;
        for (int a = pos; a < pos + extent && ok; ++a) {
          for (int b = a + 1; b <= pos + extent && ok; ++b) {
            ok = state.stages_independent(state.stage_at(gpu, a), state.stage_at(gpu, b));
          }
        }
        if (!ok) break;  // dependency blocks this and any larger window
        ++result.candidates_tried;
        // Off the critical path, the merge cannot beat `latency` (§6d).
        if (!state.window_on_critical_path(gpu, pos, extent)) continue;

        state.apply_merge(gpu, pos, extent);
        const auto cand = state.evaluate_latency();
        state.undo_merge();
        ++result.candidates_evaluated;
        if (cand.has_value() && *cand < best_latency) {
          best_latency = *cand;
          best_extent = extent;
        }
      }
      if (best_extent == 0) continue;

      state.apply_merge(gpu, pos, best_extent);
      state.commit_merge();
      latency = best_latency;
      ++result.merges_accepted;
    }
  }

  result.schedule = state.extract();
  result.latency_ms = latency;
  return result;
}

ParallelizeResult parallelize(const graph::Graph& g, Schedule schedule,
                              const cost::CostModel& cost, int window) {
  const graph::CompiledGraph cg(g);
  const cost::StageTimeCache cached(cost);
  return parallelize(cg, std::move(schedule), cached, window);
}

}  // namespace hios::sched
