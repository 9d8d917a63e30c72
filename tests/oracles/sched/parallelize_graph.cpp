#include "sched/parallelize_graph.h"

#include <utility>

#include "cost/stage_cache.h"

namespace hios::sched {

ParallelizeResult parallelize(const graph::Graph& g, Schedule schedule,
                              const cost::CostModel& cost, int window) {
  const graph::CompiledGraph cg(g);
  const cost::StageTimeCache cached(cost);
  return parallelize(cg, std::move(schedule), cached, window);
}

}  // namespace hios::sched
