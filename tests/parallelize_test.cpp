// Tests for Alg. 2 (intra-GPU sliding-window parallelization).
#include <gtest/gtest.h>

#include "cost/table_model.h"
#include "graph/algorithms.h"
#include "models/examples.h"
#include "models/random_dag.h"
#include "sched/evaluate.h"
#include "sched/parallelize_graph.h"
#include "sched/validate.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

Schedule sequential_of(const graph::Graph& g) {
  Schedule s(1);
  for (graph::NodeId v : graph::priority_order(g)) s.push_op(0, v);
  return s;
}

TEST(Parallelize, GroupsIndependentSmallOps) {
  // Fork-join with small branches: grouping the branches must win.
  const graph::Graph g = models::make_fork_join(3, 0.3, 0.05, 0.2);
  const Schedule seq = sequential_of(g);
  const auto before = evaluate_schedule(g, seq, kCost);
  const ParallelizeResult r = parallelize(g, seq, kCost, /*window=*/3);
  check_schedule(g, r.schedule);
  EXPECT_LT(r.latency_ms, before->latency_ms);
  EXPECT_GE(r.merges_accepted, 1);
  // A merged stage with more than one op must exist.
  bool found_group = false;
  for (const auto& stage : r.schedule.gpus[0]) found_group |= stage.ops.size() > 1;
  EXPECT_TRUE(found_group);
}

TEST(Parallelize, NeverIncreasesLatency) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    models::RandomDagParams p;
    p.num_ops = 40;
    p.num_layers = 6;
    p.num_deps = 80;
    p.seed = seed;
    const graph::Graph g = models::random_dag(p);
    const Schedule seq = sequential_of(g);
    const double before = evaluate_schedule(g, seq, kCost)->latency_ms;
    const ParallelizeResult r = parallelize(g, seq, kCost, 2);
    check_schedule(g, r.schedule);
    EXPECT_LE(r.latency_ms, before + 1e-9) << seed;
    // Reported latency matches a fresh evaluation.
    EXPECT_NEAR(evaluate_schedule(g, r.schedule, kCost)->latency_ms, r.latency_ms, 1e-9);
  }
}

TEST(Parallelize, WindowOneIsNoOp) {
  const graph::Graph g = models::make_fork_join(3, 0.3, 0.05, 0.2);
  const Schedule seq = sequential_of(g);
  const ParallelizeResult r = parallelize(g, seq, kCost, 1);
  EXPECT_EQ(r.merges_accepted, 0);
  EXPECT_EQ(r.candidates_tried, 0);
  EXPECT_DOUBLE_EQ(r.latency_ms, evaluate_schedule(g, seq, kCost)->latency_ms);
}

TEST(Parallelize, WindowCapsGroupSize) {
  const graph::Graph g = models::make_fork_join(6, 0.2, 0.01, 0.1);
  const Schedule seq = sequential_of(g);
  const ParallelizeResult r = parallelize(g, seq, kCost, 3);
  for (const auto& stage : r.schedule.gpus[0]) EXPECT_LE(stage.ops.size(), 3u);
}

TEST(Parallelize, RespectsDependenciesInWindow) {
  // A chain offers no independent window: nothing may merge.
  const graph::Graph g = models::make_chain(5, 0.2, 0.01);
  const Schedule seq = sequential_of(g);
  const ParallelizeResult r = parallelize(g, seq, kCost, 4);
  EXPECT_EQ(r.merges_accepted, 0);
  for (const auto& stage : r.schedule.gpus[0]) EXPECT_EQ(stage.ops.size(), 1u);
}

TEST(Parallelize, LargeOpsNotGrouped) {
  // Saturating ops (t >= t_saturate): grouping is slower, so Alg. 2 must
  // leave them sequential (the §II-A motivation).
  const graph::Graph g = models::make_fork_join(2, 4.0, 0.05, 0.2);
  const Schedule seq = sequential_of(g);
  const ParallelizeResult r = parallelize(g, seq, kCost, 2);
  EXPECT_EQ(r.merges_accepted, 0);
  EXPECT_GT(r.candidates_tried, 0);  // it tried, latency said no
}

TEST(Parallelize, MultiGpuScheduleKeepsAssignments) {
  const graph::Graph g = models::make_twin_chains(4, 0.3, 0.05);
  Schedule s(2);
  // Chain a on gpu0, chain b on gpu1, sink on gpu0 (ids interleaved).
  const auto order = graph::priority_order(g);
  for (graph::NodeId v : order) {
    const bool is_b = g.node_name(v)[0] == 'b';
    s.push_op(is_b ? 1 : 0, v);
  }
  const auto gpu_before = s.gpu_assignment(g.num_nodes());
  const ParallelizeResult r = parallelize(g, s, kCost, 2);
  check_schedule(g, r.schedule);
  EXPECT_EQ(r.schedule.gpu_assignment(g.num_nodes()), gpu_before);
}

TEST(Parallelize, Fig5StyleImprovement) {
  // Mirror of the paper's Fig. 5 situation: after an inter-GPU split,
  // sliding windows group small independent ops per GPU and cut latency.
  const graph::Graph g = models::make_fig4_graph(
      {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, {0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1});
  Schedule s(1);
  for (graph::NodeId v : graph::priority_order(g)) s.push_op(0, v);
  const double before = evaluate_schedule(g, s, kCost)->latency_ms;
  const ParallelizeResult r = parallelize(g, s, kCost, 2);
  EXPECT_LT(r.latency_ms, before);
}

TEST(Parallelize, InvalidInputScheduleThrows) {
  const graph::Graph g = models::make_chain(3, 1.0, 0.1);
  Schedule bad(2);
  bad.push_op(0, 2);
  bad.push_op(0, 0);
  bad.push_op(1, 1);  // deadlocks
  EXPECT_THROW(parallelize(g, bad, kCost, 2), Error);
}

TEST(Parallelize, SingleNodeGraph) {
  graph::Graph g;
  g.add_node("only", 1.0);
  Schedule s(1);
  s.push_op(0, 0);
  const ParallelizeResult r = parallelize(g, s, kCost, 2);
  EXPECT_DOUBLE_EQ(r.latency_ms, 1.0);
}

}  // namespace
}  // namespace hios::sched
