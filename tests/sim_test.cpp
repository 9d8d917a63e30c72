// Tests for the simulators and timeline exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "sched/evaluate.h"
#include "sched/scheduler.h"
#include "sched/validate.h"
#include "sim/event_sim.h"
#include "sim/pipeline_sim.h"

namespace hios::sim {
namespace {

const cost::TableCostModel kCost;

sched::Schedule chain_on_two_gpus(const graph::Graph& g) {
  sched::Schedule s(2);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v)
    s.push_op(v % 2, v);
  return s;
}

TEST(SimulateStages, MatchesEvaluatorLatency) {
  const graph::Graph g = models::make_fig4_graph();
  sched::Schedule s(1);
  for (graph::NodeId v : graph::priority_order(g)) s.push_op(0, v);
  const auto tl = simulate_stages(g, s, kCost);
  ASSERT_TRUE(tl.has_value());
  const auto eval = sched::evaluate_schedule(g, s, kCost);
  EXPECT_DOUBLE_EQ(tl->latency_ms, eval->latency_ms);
}

TEST(SimulateStages, EmitsComputeEventPerOp) {
  const graph::Graph g = models::make_chain(4, 1.0, 0.2);
  const auto tl = simulate_stages(g, chain_on_two_gpus(g), kCost);
  ASSERT_TRUE(tl.has_value());
  int compute = 0, transfer = 0;
  for (const auto& e : tl->events) {
    if (e.kind == TimelineEvent::Kind::kCompute) ++compute;
    else ++transfer;
  }
  EXPECT_EQ(compute, 4);
  EXPECT_EQ(transfer, 3);  // every chain edge crosses GPUs
}

TEST(SimulateStages, TransferEventsHaveCorrectEndpoints) {
  const graph::Graph g = models::make_chain(2, 1.0, 0.5);
  const auto tl = simulate_stages(g, chain_on_two_gpus(g), kCost);
  ASSERT_TRUE(tl.has_value());
  const auto it = std::find_if(tl->events.begin(), tl->events.end(), [](const auto& e) {
    return e.kind == TimelineEvent::Kind::kTransfer;
  });
  ASSERT_NE(it, tl->events.end());
  EXPECT_EQ(it->gpu, 0);
  EXPECT_EQ(it->peer_gpu, 1);
  EXPECT_DOUBLE_EQ(it->finish_ms - it->start_ms, 0.5);
}

TEST(SimulateStages, DeadlockReturnsNullopt) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.1);
  sched::Schedule s(2);
  s.push_op(0, 2);
  s.push_op(0, 0);
  s.push_op(1, 1);
  EXPECT_FALSE(simulate_stages(g, s, kCost).has_value());
  EXPECT_FALSE(simulate_ops(g, s, kCost).has_value());
}

TEST(SimulateStages, GroupedStageCycleReturnsNullopt) {
  // Two disjoint edges (0->1, 2->3) grouped so the stage DAG is cyclic:
  // GPU 0's stage {0, 3} waits on GPU 1's stage {1, 2} and vice versa —
  // each stage holds independent ops, so only the *stage* level deadlocks.
  graph::Graph g("cross");
  for (int i = 0; i < 4; ++i) g.add_node("n" + std::to_string(i), 1.0);
  g.add_edge(0, 1, 0.1);
  g.add_edge(2, 3, 0.1);
  sched::Schedule s(2);
  s.gpus[0].push_back(sched::Stage{{0, 3}});
  s.gpus[1].push_back(sched::Stage{{1, 2}});
  EXPECT_FALSE(simulate_stages(g, s, kCost).has_value());
  EXPECT_FALSE(simulate_ops(g, s, kCost).has_value());
}

TEST(SimulateOps, EqualsStageModelWhenNoRelaxationPossible) {
  // A pure chain has nothing to relax: identical latency in both models.
  const graph::Graph g = models::make_chain(5, 1.0, 0.3);
  sched::Schedule s(1);
  for (graph::NodeId v : graph::priority_order(g)) s.push_op(0, v);
  const auto stage_tl = simulate_stages(g, s, kCost);
  const auto op_tl = simulate_ops(g, s, kCost);
  ASSERT_TRUE(stage_tl && op_tl);
  EXPECT_DOUBLE_EQ(op_tl->latency_ms, stage_tl->latency_ms);
}

TEST(SimulateOps, RelaxedStartsCanOnlyHelp) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 40;
    p.num_layers = 6;
    p.num_deps = 80;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    sched::SchedulerConfig config;
    config.num_gpus = 3;
    const auto r = sched::make_scheduler("hios-lp")->schedule(g, kCost, config);
    const auto stage_tl = simulate_stages(g, r.schedule, kCost);
    const auto op_tl = simulate_ops(g, r.schedule, kCost);
    ASSERT_TRUE(stage_tl && op_tl) << seed;
    EXPECT_LE(op_tl->latency_ms, stage_tl->latency_ms + 1e-9) << seed;
    EXPECT_GT(op_tl->latency_ms, 0.0) << seed;
  }
}

TEST(SimulateOps, GroupedStageFinishMatchesStageTimeWhenSynchronized) {
  // Independent ops whose inputs are ready simultaneously: the grouped
  // stage must finish exactly at t(S).
  const graph::Graph g = models::make_fork_join(2, 1.0, 0.1, 0.5);
  sched::Schedule s(1);
  s.push_op(0, 0);
  s.gpus[0].push_back(sched::Stage{{2, 3}});
  s.push_op(0, 1);
  const auto stage_tl = simulate_stages(g, s, kCost);
  const auto op_tl = simulate_ops(g, s, kCost);
  ASSERT_TRUE(stage_tl && op_tl);
  EXPECT_NEAR(op_tl->latency_ms, stage_tl->latency_ms, 1e-9);
}

/// t(S) = 1 ms without looking at the ops, so an evaluator cannot lean on
/// the cost model to range-check node ids.
struct BlindCostModel final : cost::CostModel {
  double stage_time(const graph::Graph&, std::span<const graph::NodeId>) const override {
    return 1.0;
  }
  double demand(const graph::Graph&, graph::NodeId) const override { return 1.0; }
};

TEST(StageDag, BadNodeIdIsRejectedByEveryEvaluator) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.2);
  const BlindCostModel cost;
  const auto n = static_cast<graph::NodeId>(g.num_nodes());
  for (const graph::NodeId bad : {n, graph::NodeId{-1}}) {
    sched::Schedule s = chain_on_two_gpus(g);
    s.push_op(1, bad);
    EXPECT_THROW(sched::evaluate_schedule(g, s, cost), Error) << bad;
    EXPECT_THROW(simulate_ops(g, s, cost), Error) << bad;
    EXPECT_THROW(simulate_pipeline(g, s, cost, 2), Error) << bad;
    const auto violations = sched::validate_schedule(g, s);
    const std::string unknown = "unknown node " + std::to_string(bad);
    EXPECT_TRUE(std::any_of(violations.begin(), violations.end(), [&](const std::string& v) {
      return v.find(unknown) != std::string::npos;
    })) << bad;
  }
}

/// Request-major unrolling of `s` over `copies` disjoint copies of `g`:
/// copy k's node v becomes v + k * n, and each GPU lists copy 0's stages,
/// then copy 1's, and so on — the order simulate_pipeline executes.
std::pair<graph::Graph, sched::Schedule> unroll(const graph::Graph& g, const sched::Schedule& s,
                                                int copies) {
  const auto n = static_cast<graph::NodeId>(g.num_nodes());
  graph::Graph big("unrolled");
  sched::Schedule big_s(s.num_gpus);
  for (int k = 0; k < copies; ++k) {
    for (graph::NodeId v = 0; v < n; ++v) big.add_node(g.node_name(v), g.node_weight(v));
    for (const graph::Edge& e : g.edges()) big.add_edge(e.src + k * n, e.dst + k * n, e.weight);
    for (int gpu = 0; gpu < s.num_gpus; ++gpu) {
      for (const sched::Stage& stage : s.gpus[static_cast<std::size_t>(gpu)]) {
        sched::Stage copy;
        for (graph::NodeId v : stage.ops) copy.ops.push_back(v + k * n);
        big_s.gpus[static_cast<std::size_t>(gpu)].push_back(std::move(copy));
      }
    }
  }
  return {std::move(big), std::move(big_s)};
}

TEST(SimulatePipeline, EqualsEvaluationOfTheUnrolledSchedule) {
  std::mt19937_64 rng(0x919E);
  for (int iter = 0; iter < 50; ++iter) {
    models::RandomDagParams p;
    p.num_ops = 8 + static_cast<int>(rng() % 32);
    p.num_layers = 2 + static_cast<int>(rng() % 5);
    p.num_deps = p.num_ops + static_cast<int>(rng() % p.num_ops);
    p.seed = rng();
    const graph::Graph g = models::random_dag(p);
    const auto n = static_cast<graph::NodeId>(g.num_nodes());
    const auto topo = graph::topological_sort(g);
    ASSERT_TRUE(topo.has_value());
    for (int m = 1; m <= 4; ++m) {
      // Topological order per GPU. v may join its GPU's last stage when all
      // of v's producers sit in stages created before it: every stage edge
      // then points from an older stage to a newer one, so the schedule
      // cannot deadlock, and the grouped ops are independent.
      sched::Schedule s(m);
      std::vector<int> created(g.num_nodes(), 0);  // creation index of v's stage
      std::vector<int> last_created(static_cast<std::size_t>(m), 0);
      int num_created = 0;
      for (graph::NodeId v : *topo) {
        const std::size_t gpu = rng() % static_cast<uint64_t>(m);
        auto& stages = s.gpus[gpu];
        bool join = !stages.empty() && rng() % 3 == 0;
        for (graph::EdgeId e : g.in_edges(v))
          join = join && created[static_cast<std::size_t>(g.edge(e).src)] < last_created[gpu];
        if (join) {
          stages.back().ops.push_back(v);
        } else {
          stages.push_back(sched::Stage{{v}});
          last_created[gpu] = num_created++;
        }
        created[static_cast<std::size_t>(v)] = last_created[gpu];
      }
      for (const int copies : {1, 2, 7}) {
        const auto stats = simulate_pipeline(g, s, kCost, copies);
        const auto [big, big_s] = unroll(g, s, copies);
        const auto eval = sched::evaluate_schedule(big, big_s, kCost);
        ASSERT_TRUE(stats.has_value() && eval.has_value()) << iter;
        std::vector<double> completion(static_cast<std::size_t>(copies), 0.0);
        for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(big.num_nodes()); ++v) {
          const auto stage = static_cast<std::size_t>(eval->stage_of[static_cast<std::size_t>(v)]);
          double& c = completion[static_cast<std::size_t>(v / n)];
          c = std::max(c, eval->stages[stage].finish);
        }
        // Bit-identical: both sides run the same max/+ recurrence.
        EXPECT_EQ(stats->first_latency_ms, completion[0]) << iter << " " << m << " " << copies;
        EXPECT_EQ(stats->makespan_ms, eval->latency_ms) << iter << " " << m << " " << copies;
        if (copies > 1) {
          double gaps = 0.0;
          for (std::size_t k = 1; k < completion.size(); ++k)
            gaps += completion[k] - completion[k - 1];
          EXPECT_EQ(stats->steady_interval_ms, gaps / (copies - 1)) << iter << " " << m;
        }
      }
    }
  }
}

TEST(SimulatePipeline, EmptyGraphTakesNoTime) {
  const graph::Graph g("empty");
  const auto stats = simulate_pipeline(g, sched::Schedule(2), kCost, 3);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->first_latency_ms, 0.0);
  EXPECT_EQ(stats->makespan_ms, 0.0);
  EXPECT_EQ(stats->steady_interval_ms, 0.0);
}

TEST(Timeline, ChromeTraceWellFormed) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.2);
  const auto tl = simulate_stages(g, chain_on_two_gpus(g), kCost);
  ASSERT_TRUE(tl.has_value());
  const Json trace = tl->to_chrome_trace();
  EXPECT_TRUE(trace.contains("traceEvents"));
  const auto& events = trace.at("traceEvents").as_array();
  EXPECT_EQ(events.size(), tl->events.size());
  for (const Json& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_number(), 0.0);
  }
  // Round-trips through the parser.
  EXPECT_NO_THROW(Json::parse(trace.dump()));
}

TEST(Timeline, AsciiGanttRendersAllEvents) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.2);
  const auto tl = simulate_stages(g, chain_on_two_gpus(g), kCost);
  ASSERT_TRUE(tl.has_value());
  const std::string gantt = tl->to_ascii_gantt(60);
  EXPECT_NE(gantt.find("GPU 0"), std::string::npos);
  EXPECT_NE(gantt.find("GPU 1"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
  EXPECT_NE(gantt.find('~'), std::string::npos);
}

TEST(Timeline, EmptyTimelineGantt) {
  Timeline empty;
  EXPECT_EQ(empty.to_ascii_gantt(), "(empty timeline)\n");
  EXPECT_THROW(empty.to_ascii_gantt(5), Error);
}

}  // namespace
}  // namespace hios::sim
