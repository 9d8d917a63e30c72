// Property suite of the fault-aware simulator: random DAGs x schedulers x
// random fault plans. Whatever the faults, a run only executes ops whose
// inputs exist and each GPU stops at one point of its stage list; with no
// faults it is the §III-A stage timing, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "cost/table_model.h"
#include "models/random_dag.h"
#include "sched/evaluate.h"
#include "sched/scheduler.h"
#include "sim/fault_sim.h"

namespace hios::sim {
namespace {

struct Planned {
  graph::Graph graph;
  sched::ScheduleResult result;
  int num_gpus;  ///< GPUs offered; sequential plans use only one of them
  std::string label;
};

/// 30 random DAGs x {hios-lp, hios-mr, sequential} on 2-4 GPUs.
std::vector<Planned> planned_corpus(const cost::CostModel& cost) {
  std::vector<Planned> corpus;
  std::mt19937_64 rng(0xFA17);
  for (int d = 0; d < 30; ++d) {
    models::RandomDagParams p;
    p.num_ops = 12 + static_cast<int>(rng() % 52);
    p.num_layers = 3 + static_cast<int>(rng() % 8);
    p.num_deps = p.num_ops + static_cast<int>(rng() % (2 * p.num_ops));
    p.seed = rng();
    const graph::Graph g = models::random_dag(p);
    sched::SchedulerConfig config;
    config.num_gpus = 2 + static_cast<int>(rng() % 3);
    for (const char* algorithm : {"hios-lp", "hios-mr", "sequential"}) {
      corpus.push_back(Planned{g, sched::make_scheduler(algorithm)->schedule(g, cost, config),
                               config.num_gpus, std::string(algorithm) + " dag " + std::to_string(d) + " m " +
                                   std::to_string(config.num_gpus)});
    }
  }
  return corpus;
}

fault::FaultPlan random_plan(int num_gpus, double horizon_ms, uint64_t seed) {
  std::mt19937_64 rng(seed);
  fault::FaultPlan::RandomParams params;
  params.num_gpus = num_gpus;
  params.horizon_ms = horizon_ms;
  params.num_fail_stops = static_cast<int>(rng() % 2);
  params.num_link_faults = static_cast<int>(rng() % 4);
  params.num_stragglers = static_cast<int>(rng() % 3);
  return fault::FaultPlan::random(params, seed);
}

TEST(FaultSimProperty, FaultyRunsExecuteClosedSetsAndPerGpuPrefixes) {
  const cost::TableCostModel cost;
  int incomplete = 0;
  for (const Planned& c : planned_corpus(cost)) {
    const sched::Schedule& schedule = c.result.schedule;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(c.label + " plan " + std::to_string(seed));
      const fault::FaultPlan plan = random_plan(c.num_gpus, c.result.latency_ms, seed);
      const FaultyRun run = simulate_stages_faulty(c.graph, schedule, cost, plan);
      if (!run.complete) ++incomplete;

      // An executed op had every input: the executed set is closed under
      // predecessors.
      for (const graph::Edge& e : c.graph.edges()) {
        if (run.executed[static_cast<std::size_t>(e.dst)]) {
          EXPECT_TRUE(run.executed[static_cast<std::size_t>(e.src)])
              << "'" << c.graph.node_name(e.dst) << "' ran without '"
              << c.graph.node_name(e.src) << "'";
        }
      }
      // Each GPU runs whole stages, in order, up to the one it stopped at.
      for (int gpu = 0; gpu < schedule.num_gpus; ++gpu) {
        bool stopped = false;
        for (const sched::Stage& stage : schedule.gpus[static_cast<std::size_t>(gpu)]) {
          const bool ran = run.executed[static_cast<std::size_t>(stage.ops.front())] != 0;
          for (graph::NodeId v : stage.ops)
            EXPECT_EQ(run.executed[static_cast<std::size_t>(v)] != 0, ran) << "gpu " << gpu;
          EXPECT_FALSE(ran && stopped) << "gpu " << gpu << " ran a stage after stopping";
          stopped = stopped || !ran;
        }
      }
      EXPECT_EQ(run.complete, std::all_of(run.executed.begin(), run.executed.end(),
                                          [](char x) { return x != 0; }));
    }
  }
  EXPECT_GT(incomplete, 0) << "the plans never stopped a run";
}

TEST(FaultSimProperty, EmptyPlanIsTheStageTimingBitForBit) {
  const cost::TableCostModel cost;
  const fault::FaultPlan no_faults;
  for (const Planned& c : planned_corpus(cost)) {
    SCOPED_TRACE(c.label);
    const FaultyRun run = simulate_stages_faulty(c.graph, c.result.schedule, cost, no_faults);
    const auto eval = sched::evaluate_schedule(c.graph, c.result.schedule, cost);
    ASSERT_TRUE(eval.has_value());
    EXPECT_TRUE(run.complete);
    EXPECT_TRUE(run.observations.empty());
    EXPECT_EQ(run.makespan_ms, eval->latency_ms);
    for (std::size_t v = 0; v < c.graph.num_nodes(); ++v) {
      EXPECT_EQ(run.node_finish_ms[v],
                eval->stages[static_cast<std::size_t>(eval->stage_of[v])].finish)
          << "node " << v;
    }
  }
}

}  // namespace
}  // namespace hios::sim
