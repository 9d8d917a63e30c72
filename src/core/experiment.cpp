#include "core/experiment.h"

#include <algorithm>

#include "sched/validate.h"

namespace hios::core {

std::size_t CountingCostModel::SetHash::operator()(
    const std::vector<graph::NodeId>& ops) const {
  std::size_t h = 1469598103934665603ULL;
  for (graph::NodeId v : ops) h = (h ^ static_cast<std::size_t>(v)) * 1099511628211ULL;
  return h;
}

double CountingCostModel::stage_time(const graph::Graph& g,
                                     std::span<const graph::NodeId> stage) const {
  const double t = inner_.stage_time(g, stage);
  std::vector<graph::NodeId> key(stage.begin(), stage.end());
  std::ranges::sort(key);
  std::lock_guard<std::mutex> lock(mu_);
  if (seen_.insert(std::move(key)).second) measured_ms_ += t;
  return t;
}

std::size_t CountingCostModel::distinct_stages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_.size();
}

double CountingCostModel::measured_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return measured_ms_;
}

double CountingCostModel::demand(const graph::Graph& g, graph::NodeId v) const {
  return inner_.demand(g, v);
}

double scheduling_cost_minutes(const graph::Graph& g, const CountingCostModel& counter,
                               double algorithm_ms, int runs) {
  // Base measurements: every operator alone and every possible transfer.
  double per_run_ms = 0.0;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v)
    per_run_ms += g.node_weight(v);
  for (const graph::Edge& e : g.edges()) per_run_ms += e.weight;
  // Plus every distinct concurrent group the algorithm asked about.
  per_run_ms += counter.measured_ms();
  const double total_ms = static_cast<double>(runs) * per_run_ms + algorithm_ms;
  return total_ms / 60000.0;
}

std::map<std::string, sched::ScheduleResult> run_algorithms(
    const graph::Graph& g, const cost::CostModel& cost, const sched::SchedulerConfig& config,
    const std::vector<std::string>& names) {
  std::map<std::string, sched::ScheduleResult> results;
  for (const std::string& name : names) {
    const auto scheduler = sched::make_scheduler(name);
    sched::ScheduleResult result = scheduler->schedule(g, cost, config);
    sched::check_schedule(g, result.schedule);
    results.emplace(name, std::move(result));
  }
  return results;
}

}  // namespace hios::core
