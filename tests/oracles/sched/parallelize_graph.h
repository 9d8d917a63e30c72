// Test-only convenience overload of Alg. 2: compiles the graph and wraps
// the cost model in a stage-time cache, then runs the CompiledGraph
// overload that schedule() uses.
#pragma once

#include "sched/parallelize.h"

namespace hios::sched {

ParallelizeResult parallelize(const graph::Graph& g, Schedule schedule,
                              const cost::CostModel& cost, int window);

}  // namespace hios::sched
