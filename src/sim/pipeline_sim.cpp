#include "sim/pipeline_sim.h"

#include "sched/stage_dag.h"
#include "util/error.h"

namespace hios::sim {

std::optional<PipelineStats> simulate_pipeline(const graph::Graph& g,
                                               const sched::Schedule& schedule,
                                               const cost::CostModel& cost,
                                               int num_requests) {
  HIOS_CHECK(num_requests >= 1, "need >= 1 request");
  const sched::StageDag dag(g, schedule);
  if (!dag.order().has_value()) return std::nullopt;  // deadlock
  const std::vector<double> duration = dag.stage_times(g, cost);
  const std::vector<double> transfer = dag.transfer_times(g, cost);

  // Request-major execution: each GPU runs request r's stages in order,
  // then request r+1's, so request r is released on a GPU once request
  // r-1's last stage there has finished.
  std::vector<int> last_stage(static_cast<std::size_t>(schedule.num_gpus), -1);
  for (std::size_t s = 0; s < dag.num_stages(); ++s)
    last_stage[static_cast<std::size_t>(dag.stages()[s].gpu)] = static_cast<int>(s);
  std::vector<double> release(static_cast<std::size_t>(schedule.num_gpus), 0.0);

  PipelineStats stats;
  stats.num_requests = num_requests;
  double prev_completion = 0.0;
  double sum_intervals = 0.0;
  int interval_count = 0;

  for (int r = 0; r < num_requests; ++r) {
    const sched::StageTimes times = sched::time_stages(dag, duration, transfer, release);
    // All requests are available at t = 0 (saturated server), so a
    // request's latency is simply its completion time.
    const double completion = times.latency_ms;
    if (r == 0) stats.first_latency_ms = completion;
    if (r == num_requests - 1) {
      stats.steady_latency_ms = completion;
      stats.makespan_ms = completion;
    }
    if (r > 0) {
      sum_intervals += completion - prev_completion;
      ++interval_count;
    }
    prev_completion = completion;
    for (std::size_t gpu = 0; gpu < release.size(); ++gpu)
      if (last_stage[gpu] >= 0)
        release[gpu] = times.finish[static_cast<std::size_t>(last_stage[gpu])];
  }
  stats.steady_interval_ms =
      interval_count > 0 ? sum_intervals / interval_count : stats.first_latency_ms;
  return stats;
}

}  // namespace hios::sim
