// Placement steps of the scheduling algorithms (internal to src/sched/).
//
// Every algorithm is a placement followed by one shared finishing pass, and
// the scheduler driver (scheduler_factory.cpp) owns everything around the
// placement: the timer, the CompiledGraph, the run's cost::StageTimeCache
// (passed here as `cost`) and the finishing pass — Alg. 2, the IOS-per-GPU
// ablation pass, or plain evaluation. A placement only decides which GPU
// runs each op and, for IOS, how ops group into stages.
#pragma once

#include "cost/cost_model.h"
#include "graph/compiled_graph.h"
#include "sched/scheduler.h"

namespace hios::sched {

/// Alg. 1 (HIOS-LP): longest-path-based inter-GPU placement. Iteratively
/// extracts the longest valid path from the unscheduled part of the graph
/// (graph/longest_path.h), tries mapping the whole path onto each GPU,
/// scores each try with the priority-order list schedule over all mapped
/// ops, and commits the best GPU (ties to the lowest). Returns each GPU's
/// ops one per stage in priority order.
Schedule place_longest_path(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                            const SchedulerConfig& config);

/// Alg. 3 (HIOS-MR): mapping-recording inter-GPU placement. Ops are visited
/// in descending priority; an n x M table records, for each op v_i and GPU
/// j, the earliest finish t_{i,j} of v_i on j and the GPU v_{i-1} occupied
/// in the recorded schedule achieving it. Candidates are rebuilt by
/// backtracking (Lines 8-19) and the best chain comes from argmin_j t_{n,j}.
/// Returns each GPU's ops one per stage in priority order.
Schedule place_mapping_recording(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                                 const SchedulerConfig& config);

/// IOS (Ding et al., MLSys'21): single-GPU DP over down-sets. A state is the
/// set of executed ops; a transition appends one stage, an independent
/// subset of the ready frontier costing t(S). Pruned like the original:
/// stage candidates come from the top `ios_frontier_cap` ready ops (by
/// priority), stages hold at most min(ios_max_stage_ops, max_streams) ops,
/// and at most `ios_beam_width` states per down-set size are expanded. With
/// all three bounds relaxed the DP is exact (the single-GPU oracle in
/// tests). States live in a flat word arena behind an open-addressing
/// index keyed on Zobrist hashes, and each transition is merged as subset
/// enumeration produces it (DESIGN.md §6d); stage_time is queried for the
/// same stages in the same order as the map-based DP this replaced.
/// Always places onto one GPU; config.num_gpus is ignored.
Schedule place_ios(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                   const SchedulerConfig& config);

}  // namespace hios::sched
