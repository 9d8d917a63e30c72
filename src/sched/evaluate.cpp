#include "sched/evaluate.h"

#include "sched/stage_dag.h"

namespace hios::sched {

std::optional<Evaluation> evaluate_schedule(const graph::Graph& g, const Schedule& schedule,
                                            const cost::CostModel& cost) {
  const StageDag dag(g, schedule);
  if (!dag.order().has_value()) return std::nullopt;  // deadlock
  const StageTimes times =
      time_stages(dag, dag.stage_times(g, cost), dag.transfer_times(g, cost));

  Evaluation eval;
  eval.latency_ms = times.latency_ms;
  eval.stage_of = dag.stage_of();
  eval.stages.reserve(dag.num_stages());
  for (std::size_t s = 0; s < dag.num_stages(); ++s) {
    const StageDag::FlatStage& st = dag.stages()[s];
    eval.stages.push_back(StageTiming{st.gpu, st.index, times.start[s], times.finish[s]});
  }
  return eval;
}

}  // namespace hios::sched
