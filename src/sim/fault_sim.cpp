#include "sim/fault_sim.h"

#include <algorithm>
#include <string>

#include "sched/stage_dag.h"
#include "sched/validate.h"

namespace hios::sim {

VirtualGpu::VirtualGpu(const graph::Graph& g, const cost::CostModel& cost,
                       const fault::FaultPlan& plan, int gpu)
    : g_(&g), cost_(&cost), plan_(&plan), gpu_(gpu), fail_ms_(plan.fail_time(gpu)) {}

void VirtualGpu::block(graph::NodeId producer, int producer_gpu) {
  stopped_ = true;
  observations_.push_back(fault::FaultObservation{
      fault::FaultObservation::Kind::kBlocked, gpu_, producer_gpu, clock_,
      "gpu " + std::to_string(gpu_) + " blocked: dependency '" + g_->node_name(producer) +
          "' will never arrive"});
}

bool VirtualGpu::fail_stop_before(double start, int stage) {
  if (start < fail_ms_) return false;
  stopped_ = true;
  observations_.push_back(fault::FaultObservation{
      fault::FaultObservation::Kind::kFailStop, gpu_, -1, fail_ms_,
      "gpu " + std::to_string(gpu_) + " fail-stop at " + std::to_string(fail_ms_) +
          " ms before stage " + std::to_string(stage)});
  return true;
}

void VirtualGpu::run_stage(std::span<const graph::NodeId> ops, int stage, double start) {
  stage_ = stage;
  start_ = start;
  clock_ = start + cost_->stage_time_on(*g_, ops, gpu_) * plan_->compute_scale(gpu_, start);
}

void VirtualGpu::ran(graph::NodeId v) {
  ran_.emplace_back(v, clock_);
  events_.push_back(TimelineEvent{TimelineEvent::Kind::kCompute, g_->node_name(v), gpu_, -1,
                                  stage_, start_, clock_});
}

std::optional<double> VirtualGpu::send(graph::EdgeId e, int dst_gpu) {
  const graph::Edge& edge = g_->edge(e);
  const std::string name = g_->node_name(edge.src) + "->" + g_->node_name(edge.dst);
  const fault::TransferResolution res =
      plan_->resolve_transfer(gpu_, dst_gpu, clock_, cost_->transfer_time(*g_, e, gpu_, dst_gpu));
  for (const fault::TransferAttempt& a : res.attempts) {
    if (a.ok) continue;
    events_.push_back(TimelineEvent{TimelineEvent::Kind::kRetry, name + " (retry)", gpu_,
                                    dst_gpu, -1, a.at_ms, a.at_ms + a.backoff_ms});
  }
  if (!res.delivered) {
    observations_.push_back(fault::FaultObservation{
        fault::FaultObservation::Kind::kTransferFailed, gpu_, dst_gpu, clock_,
        "transfer '" + name + "' failed after " + std::to_string(res.attempts.size()) +
            " attempts"});
    return std::nullopt;
  }
  events_.push_back(TimelineEvent{TimelineEvent::Kind::kTransfer, name, gpu_, dst_gpu, -1,
                                  res.attempts.back().at_ms, res.arrival_ms});
  return res.arrival_ms;
}

FaultyRun VirtualGpu::collect(std::span<VirtualGpu> gpus, std::size_t num_nodes) {
  FaultyRun run;
  run.executed.assign(num_nodes, 0);
  run.node_finish_ms.assign(num_nodes, -1.0);
  run.timeline.num_gpus = static_cast<int>(gpus.size());
  for (VirtualGpu& gpu : gpus) {
    run.makespan_ms = std::max(run.makespan_ms, gpu.clock_);
    for (TimelineEvent& ev : gpu.events_) run.timeline.events.push_back(std::move(ev));
    for (fault::FaultObservation& obs : gpu.observations_)
      run.observations.push_back(std::move(obs));
    for (const auto& [v, finish] : gpu.ran_) {
      run.executed[static_cast<std::size_t>(v)] = 1;
      run.node_finish_ms[static_cast<std::size_t>(v)] = finish;
    }
  }
  run.complete =
      std::all_of(run.executed.begin(), run.executed.end(), [](char c) { return c; });
  run.timeline.latency_ms = run.makespan_ms;
  return run;
}

FaultyRun simulate_stages_faulty(const graph::Graph& g, const sched::Schedule& schedule,
                                 const cost::CostModel& cost,
                                 const fault::FaultPlan& plan) {
  sched::check_schedule(g, schedule);
  const sched::StageDag dag(g, schedule);
  const std::vector<int> gpu_of = schedule.gpu_assignment(g.num_nodes());

  std::vector<VirtualGpu> gpus;
  gpus.reserve(static_cast<std::size_t>(schedule.num_gpus));
  for (int i = 0; i < schedule.num_gpus; ++i) gpus.emplace_back(g, cost, plan, i);
  // Arrival of each cross-GPU edge's tensor; nullopt = it never arrives
  // (its producer did not run, or the retry budget ran out).
  std::vector<std::optional<double>> arrival(g.num_edges());

  // The topological order reaches a stage after all of its producers and
  // the earlier stages on its GPU, so every dependency is settled by then.
  for (int s : *dag.order()) {
    const sched::StageDag::FlatStage& stage = dag.stages()[static_cast<std::size_t>(s)];
    VirtualGpu& gpu = gpus[static_cast<std::size_t>(stage.gpu)];
    if (gpu.stopped()) continue;
    // Scan dependencies in the engine's receive order: the first dead edge
    // blocks the GPU.
    double start = gpu.clock();
    for (graph::NodeId v : stage.ops) {
      for (graph::EdgeId e : g.in_edges(v)) {
        const graph::NodeId src = g.edge(e).src;
        const int src_gpu = gpu_of[static_cast<std::size_t>(src)];
        if (src_gpu == stage.gpu) continue;
        const std::optional<double>& at = arrival[static_cast<std::size_t>(e)];
        if (!at) {
          gpu.block(src, src_gpu);
          break;
        }
        start = std::max(start, *at);
      }
      if (gpu.stopped()) break;
    }
    if (gpu.stopped() || gpu.fail_stop_before(start, stage.index)) continue;
    gpu.run_stage(stage.ops, stage.index, start);
    for (graph::NodeId v : stage.ops) {
      gpu.ran(v);
      for (graph::EdgeId e : g.out_edges(v)) {
        const int dst_gpu = gpu_of[static_cast<std::size_t>(g.edge(e).dst)];
        if (dst_gpu != stage.gpu) arrival[static_cast<std::size_t>(e)] = gpu.send(e, dst_gpu);
      }
    }
  }
  return VirtualGpu::collect(gpus, g.num_nodes());
}

}  // namespace hios::sim
