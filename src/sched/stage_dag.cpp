#include "sched/stage_dag.h"

#include <algorithm>
#include <limits>

namespace hios::sched {

StageDag::StageDag(const graph::Graph& g, const Schedule& schedule) {
  const std::size_t n = g.num_nodes();
  HIOS_CHECK(schedule.gpus.size() == static_cast<std::size_t>(schedule.num_gpus),
             "schedule lists " << schedule.gpus.size() << " GPUs but num_gpus is "
                               << schedule.num_gpus);
  stage_of_.assign(n, -1);
  for (int i = 0; i < schedule.num_gpus; ++i) {
    const auto& list = schedule.gpus[static_cast<std::size_t>(i)];
    for (std::size_t s = 0; s < list.size(); ++s) {
      HIOS_CHECK(!list[s].ops.empty(), "empty stage " << s << " on GPU " << i);
      const int id = static_cast<int>(stages_.size());
      stages_.push_back(FlatStage{i, static_cast<int>(s), list[s].ops});
      for (graph::NodeId v : list[s].ops) {
        HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n,
                   "schedule references node " << v);
        HIOS_CHECK(stage_of_[static_cast<std::size_t>(v)] == -1,
                   "node " << v << " appears in two stages");
        stage_of_[static_cast<std::size_t>(v)] = id;
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    HIOS_CHECK(stage_of_[v] >= 0, "node " << v << " ('"
                                          << g.node_name(static_cast<graph::NodeId>(v))
                                          << "') missing from schedule");
  }

  // Successors of stage s: its chain edge, then the stages its graph edges
  // lead to in edge-id order, each destination kept once.
  const std::size_t num_stages = stages_.size();
  edge_begin_.assign(num_stages + 1, 0);
  dag_edge_of_.assign(g.num_edges(), -1);
  std::vector<int> seen_from(num_stages, -1), dag_edge(num_stages, 0), in_deg(num_stages, 0);
  std::vector<graph::EdgeId> out;
  for (std::size_t s = 0; s < num_stages; ++s) {
    edge_begin_[s] = static_cast<int>(edge_dst_.size());
    auto link = [&](std::size_t b) {
      if (seen_from[b] == static_cast<int>(s)) return;
      seen_from[b] = static_cast<int>(s);
      dag_edge[b] = static_cast<int>(edge_dst_.size());
      edge_dst_.push_back(static_cast<int>(b));
      ++in_deg[b];
    };
    if (s + 1 < num_stages && stages_[s + 1].gpu == stages_[s].gpu) link(s + 1);
    out.clear();
    for (graph::NodeId v : stages_[s].ops)
      for (graph::EdgeId e : g.out_edges(v))
        if (stage_of_[static_cast<std::size_t>(g.edge(e).dst)] != static_cast<int>(s))
          out.push_back(e);
    std::sort(out.begin(), out.end());
    for (graph::EdgeId e : out) {
      const auto b = static_cast<std::size_t>(stage_of_[static_cast<std::size_t>(g.edge(e).dst)]);
      link(b);
      dag_edge_of_[static_cast<std::size_t>(e)] = dag_edge[b];
    }
  }
  edge_begin_[num_stages] = static_cast<int>(edge_dst_.size());

  std::vector<int> order;
  order.reserve(num_stages);
  for (std::size_t s = 0; s < num_stages; ++s)
    if (in_deg[s] == 0) order.push_back(static_cast<int>(s));
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int s = order[head];
    for (int k = edge_begin(s); k < edge_begin(s + 1); ++k)
      if (--in_deg[static_cast<std::size_t>(edge_dst(k))] == 0) order.push_back(edge_dst(k));
  }
  if (order.size() == num_stages) order_ = std::move(order);
}

std::vector<double> StageDag::stage_times(const graph::Graph& g,
                                          const cost::CostModel& cost) const {
  HIOS_CHECK(order_.has_value(), "stage_times: the stage DAG has a cycle");
  std::vector<double> t(stages_.size());
  for (int s : *order_) {
    const FlatStage& st = stages_[static_cast<std::size_t>(s)];
    t[static_cast<std::size_t>(s)] = cost.stage_time_on(g, st.ops, st.gpu);
  }
  return t;
}

std::vector<double> StageDag::transfer_times(const graph::Graph& g,
                                             const cost::CostModel& cost) const {
  // -inf makes the first graph edge's transfer the starting value of a
  // data edge; a chain edge starts at 0 and absorbs any data edge it shares.
  std::vector<double> t(edge_dst_.size(), -std::numeric_limits<double>::infinity());
  for (std::size_t s = 0; s + 1 < stages_.size(); ++s)
    if (stages_[s + 1].gpu == stages_[s].gpu) t[static_cast<std::size_t>(edge_begin_[s])] = 0.0;
  auto gpu_of = [&](graph::NodeId v) {
    return stages_[static_cast<std::size_t>(stage_of_[static_cast<std::size_t>(v)])].gpu;
  };
  for (graph::EdgeId eid = 0; eid < static_cast<graph::EdgeId>(g.num_edges()); ++eid) {
    const int k = dag_edge_of_[static_cast<std::size_t>(eid)];
    if (k < 0) continue;
    const graph::Edge& e = g.edge(eid);
    double& worst = t[static_cast<std::size_t>(k)];
    worst = std::max(worst, cost.transfer_time(g, eid, gpu_of(e.src), gpu_of(e.dst)));
  }
  return t;
}

StageTimes time_stages(const StageDag& dag, std::span<const double> duration,
                       std::span<const double> transfer, std::span<const double> release) {
  HIOS_CHECK(dag.order().has_value(), "time_stages: the stage DAG has a cycle");
  const std::size_t num_stages = dag.num_stages();
  StageTimes t;
  t.start.resize(num_stages);
  t.finish.resize(num_stages);
  for (std::size_t s = 0; s < num_stages; ++s) {
    t.start[s] =
        release.empty() ? 0.0 : release[static_cast<std::size_t>(dag.stages()[s].gpu)];
  }
  // start[s] accumulates the ready time; it is final once s is reached.
  for (int s : *dag.order()) {
    const double finish =
        t.start[static_cast<std::size_t>(s)] + duration[static_cast<std::size_t>(s)];
    t.finish[static_cast<std::size_t>(s)] = finish;
    t.latency_ms = std::max(t.latency_ms, finish);
    for (int k = dag.edge_begin(s); k < dag.edge_begin(s + 1); ++k) {
      double& ready = t.start[static_cast<std::size_t>(dag.edge_dst(k))];
      ready = std::max(ready, finish + transfer[static_cast<std::size_t>(k)]);
    }
  }
  return t;
}

}  // namespace hios::sched
