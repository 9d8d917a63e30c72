#include "sched/ios_intra.h"

#include <chrono>
#include <memory>

#include "cost/remap_model.h"
#include "cost/stage_cache.h"
#include "sched/evaluate.h"
#include "sched/placement.h"

namespace hios::sched {

ScheduleResult ios_intra_pass(const graph::Graph& g, const Schedule& schedule,
                              const cost::CostModel& cost, const SchedulerConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  // One stage-time cache across the base evaluation and every per-GPU
  // candidate re-evaluation below.
  const cost::StageTimeCache cached(cost);
  auto base_eval = evaluate_schedule(g, schedule, cached);
  HIOS_CHECK(base_eval.has_value(), "ios_intra_pass: input schedule deadlocks");

  Schedule best = schedule;
  double best_latency = base_eval->latency_ms;

  for (int gpu = 0; gpu < schedule.num_gpus; ++gpu) {
    // Collect this GPU's ops (stage order) and build the induced subgraph.
    std::vector<graph::NodeId> to_global;
    for (const Stage& stage : best.gpus[static_cast<std::size_t>(gpu)])
      for (graph::NodeId v : stage.ops) to_global.push_back(v);
    if (to_global.size() < 2) continue;

    std::vector<graph::NodeId> to_local(g.num_nodes(), graph::kInvalidNode);
    graph::Graph local("gpu" + std::to_string(gpu));
    for (std::size_t i = 0; i < to_global.size(); ++i) {
      const graph::NodeId v = to_global[i];
      to_local[static_cast<std::size_t>(v)] = local.add_node(g.node_name(v), g.node_weight(v));
    }
    for (const graph::Edge& e : g.edges()) {
      const graph::NodeId lu = to_local[static_cast<std::size_t>(e.src)];
      const graph::NodeId lv = to_local[static_cast<std::size_t>(e.dst)];
      if (lu != graph::kInvalidNode && lv != graph::kInvalidNode) local.add_edge(lu, lv, 0.0);
    }

    // IOS sees only the local dependencies — exactly the paper's critique.
    // Its stages are priced on `g` through the id map; the model borrows
    // `cost` (a shared_ptr that owns nothing), which outlives this call.
    const cost::RemappedCostModel local_cost(
        std::shared_ptr<const cost::CostModel>(std::shared_ptr<void>(), &cost), g, to_global);
    const Schedule local_stages = place_ios(graph::CompiledGraph(local),
                                            cost::StageTimeCache(local_cost), config);

    Schedule candidate = best;
    auto& stages = candidate.gpus[static_cast<std::size_t>(gpu)];
    stages.clear();
    for (const Stage& stage : local_stages.gpus[0]) {
      Stage remapped;
      for (graph::NodeId lv : stage.ops)
        remapped.ops.push_back(to_global[static_cast<std::size_t>(lv)]);
      stages.push_back(std::move(remapped));
    }
    // The local DP may have reordered ops in a way that deadlocks against
    // cross-GPU dependencies, or may simply be worse globally: keep only
    // strict improvements.
    if (auto eval = evaluate_schedule(g, candidate, cached);
        eval.has_value() && eval->latency_ms < best_latency) {
      best = std::move(candidate);
      best_latency = eval->latency_ms;
    }
  }

  ScheduleResult result;
  result.schedule = std::move(best);
  result.latency_ms = best_latency;
  result.algorithm = "ios-intra";
  result.scheduling_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace hios::sched
