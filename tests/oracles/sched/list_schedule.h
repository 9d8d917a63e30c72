// Temporal operator scheduling for a fixed GPU mapping (Alg. 1, lines 10–13).
//
// Operators are visited in descending priority-indicator order (a
// topological order) and each is placed at the earliest available start
// time on its assigned GPU: after the GPU's current tail and after every
// already-placed predecessor finishes (+ transfer time when the predecessor
// lives on a different GPU). Unmapped predecessors are ignored, which is
// what lets HIOS-LP score partial mappings while paths are still being
// placed.
//
// Test oracle: schedule() scores trials with the incremental
// sched::ListScheduleState (src/sched/core/list_state.h), which must agree
// with this from-scratch pass bit for bit.
#pragma once

#include <vector>

#include "cost/cost_model.h"
#include "graph/graph.h"
#include "sched/schedule.h"

namespace hios::sched {

/// Result of the list-scheduling pass.
struct ListScheduleResult {
  Schedule schedule;            ///< singleton stages, per-GPU priority order
  double latency_ms = 0.0;      ///< max finish over placed ops
  std::vector<double> start;    ///< per node; -1 when unmapped
  std::vector<double> finish;   ///< per node; -1 when unmapped
};

/// Schedules every node v with mapping[v] >= 0 onto its GPU.
/// `order` must be a topological order of g covering all nodes (typically
/// graph::priority_order). `num_gpus` bounds mapping values. `cost`
/// supplies per-GPU-pair transfer times (the base edge weight on symmetric
/// machines).
ListScheduleResult list_schedule(const graph::Graph& g, const std::vector<int>& mapping,
                                 const std::vector<graph::NodeId>& order, int num_gpus,
                                 const cost::CostModel& cost);

}  // namespace hios::sched
