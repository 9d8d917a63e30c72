// Stage-level schedule evaluator (§III-A semantics).
//
// Computes the start/finish time of every stage under the paper's model:
//   * stages on one GPU execute in listed order,
//   * a stage starts once its GPU is free AND every producing stage has
//     finished (+ t(u,v) when producer and consumer are on different GPUs),
//   * a stage runs for t(S) from the cost model.
// This is the *reference* evaluator: a single from-scratch O(V + E + S)
// pass over the stage DAG (sched/stage_dag.h). The schedulers' inner loops
// score candidates through the incremental sched::ScheduleState
// (sched/core/), which must produce bit-identical latencies and timings —
// an equivalence enforced by the randomized property suite in
// tests/sched_core_test.cpp. Infeasible schedules (dependency cycles
// through the per-GPU execution order) are detected and reported by both.
#pragma once

#include <optional>
#include <vector>

#include "cost/cost_model.h"
#include "sched/schedule.h"

namespace hios::sched {

/// Timing of one evaluated stage.
struct StageTiming {
  int gpu = 0;
  int index = 0;       ///< position in the GPU's stage list
  double start = 0.0;  ///< ms
  double finish = 0.0; ///< ms
};

/// Full evaluation result.
struct Evaluation {
  double latency_ms = 0.0;
  std::vector<StageTiming> stages;      ///< flattened GPU-major, like StageDag::stages()
  std::vector<int> stage_of;            ///< node -> flattened stage index
};

/// Evaluates `schedule` for graph `g` with cost model `cost`.
/// Returns nullopt when the schedule deadlocks (cycle between stage
/// dependencies and per-GPU execution order). Throws on the input errors
/// StageDag rejects, e.g. an op absent from the schedule.
std::optional<Evaluation> evaluate_schedule(const graph::Graph& g, const Schedule& schedule,
                                            const cost::CostModel& cost);

}  // namespace hios::sched
