// Tests for the core pipeline facade and experiment helpers.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/pipeline.h"
#include "cost/analytical_model.h"
#include "cost/table_model.h"
#include "models/examples.h"
#include "models/inception.h"
#include "models/random_dag.h"
#include "sched/validate.h"

namespace hios::core {
namespace {

TEST(Pipeline, EndToEndOnSmallInception) {
  models::InceptionV3Options mopt;
  mopt.image_hw = 96;
  mopt.channel_scale = 4;
  PipelineOptions opt;
  opt.algorithm = "hios-lp";
  const PipelineOutput out = run_pipeline(models::make_inception_v3(mopt), opt);
  EXPECT_GT(out.result.latency_ms, 0.0);
  EXPECT_EQ(out.result.algorithm, "hios-lp");
  EXPECT_EQ(out.profiled.graph.num_nodes(), 119u);
  EXPECT_DOUBLE_EQ(out.timeline.latency_ms, out.result.latency_ms);
  EXPECT_EQ(out.result.schedule.num_gpus, 2);  // platform default
}

TEST(Pipeline, PlatformGpuCountPropagates) {
  PipelineOptions opt;
  opt.platform = cost::make_a40_server(4);
  opt.algorithm = "hios-mr";
  const PipelineOutput out = run_pipeline(models::make_single_conv_model(32), opt);
  EXPECT_EQ(out.result.schedule.num_gpus, 4);
}

TEST(Pipeline, ExplicitConfigOverride) {
  PipelineOptions opt;
  opt.config_gpus_from_platform = false;
  opt.config.num_gpus = 3;
  const PipelineOutput out = run_pipeline(models::make_single_conv_model(32), opt);
  EXPECT_EQ(out.result.schedule.num_gpus, 3);
}

TEST(Pipeline, UnknownAlgorithmThrows) {
  PipelineOptions opt;
  opt.algorithm = "bogus";
  EXPECT_THROW(run_pipeline(models::make_single_conv_model(32), opt), Error);
}

TEST(Experiment, RunAlgorithmsReturnsAllRequested) {
  models::RandomDagParams p;
  p.num_ops = 30;
  p.num_layers = 5;
  p.num_deps = 60;
  const graph::Graph g = models::random_dag(p);
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto results = run_algorithms(g, cost, config, {"sequential", "hios-lp"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LE(results.at("hios-lp").latency_ms, results.at("sequential").latency_ms + 1e-9);
}

TEST(Experiment, CountingModelPassesThroughValues) {
  const graph::Graph g = models::make_fork_join(2, 1.0, 0.1, 0.5);
  const cost::TableCostModel inner;
  const CountingCostModel counter(inner);
  const graph::NodeId single[] = {0};
  const graph::NodeId pair[] = {2, 3};
  EXPECT_DOUBLE_EQ(counter.stage_time(g, single), inner.stage_time(g, single));
  EXPECT_DOUBLE_EQ(counter.stage_time(g, pair), inner.stage_time(g, pair));
  EXPECT_DOUBLE_EQ(counter.demand(g, 0), inner.demand(g, 0));
}

// The counter stands in for the inner model inside a scheduler, so t(u,v)
// and t(v) per GPU must come out exactly as the inner model's: a 2x2 A40
// cluster (cross-node links slower) with heterogeneous speeds.
TEST(Experiment, CountingModelKeepsTopologyAndSpeedFactors) {
  const cost::ProfiledModel pm = cost::profile_model(
      models::make_inception_v3(), cost::make_a40_cluster(2, 2, 4.0, 0.05));
  const graph::Graph& g = pm.graph;
  cost::AnalyticalCostModel inner = dynamic_cast<const cost::AnalyticalCostModel&>(*pm.cost);
  inner.set_speed_factors({1.0, 1.25, 0.8, 1.5});
  ASSERT_FALSE(inner.topology().empty());
  const CountingCostModel counter(inner);
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges()); ++e) {
    for (int src = 0; src < 4; ++src) {
      for (int dst = 0; dst < 4; ++dst) {
        ASSERT_EQ(counter.transfer_time(g, e, src, dst), inner.transfer_time(g, e, src, dst))
            << "edge " << e << " " << src << "->" << dst;
      }
    }
  }
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v) {
    for (int gpu = 0; gpu < 4; ++gpu)
      ASSERT_EQ(counter.node_time(g, v, gpu), inner.node_time(g, v, gpu)) << v << "@" << gpu;
  }

  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto plain = sched::make_scheduler("hios-lp")->schedule(g, inner, config);
  const auto counted = sched::make_scheduler("hios-lp")->schedule(g, counter, config);
  EXPECT_EQ(counted.latency_ms, plain.latency_ms);
  EXPECT_EQ(counted.schedule.to_json(g).dump(), plain.schedule.to_json(g).dump());
  EXPECT_GT(counter.distinct_stages(), 0u);
}

TEST(Experiment, CountingModelDeduplicatesStages) {
  const graph::Graph g = models::make_fork_join(3, 1.0, 0.1, 0.5);
  const cost::TableCostModel inner;
  const CountingCostModel counter(inner);
  const graph::NodeId pair[] = {2, 3};
  const graph::NodeId pair_again[] = {2, 3};
  const graph::NodeId pair_reversed[] = {3, 2};  // a stage is a set: same stage
  const graph::NodeId other[] = {2, 4};
  counter.stage_time(g, pair);
  counter.stage_time(g, pair_again);
  counter.stage_time(g, pair_reversed);
  counter.stage_time(g, other);
  EXPECT_EQ(counter.distinct_stages(), 2u);
  EXPECT_GT(counter.measured_ms(), 0.0);
}

TEST(Experiment, SchedulingCostGrowsWithMeasurements) {
  const graph::Graph g = models::make_fork_join(3, 1.0, 0.1, 0.5);
  const cost::TableCostModel inner;
  const CountingCostModel idle(inner);
  const CountingCostModel busy(inner);
  const graph::NodeId pair[] = {2, 3};
  busy.stage_time(g, pair);
  const double idle_cost = scheduling_cost_minutes(g, idle, 0.0);
  const double busy_cost = scheduling_cost_minutes(g, busy, 0.0);
  EXPECT_GT(busy_cost, idle_cost);
  // Algorithm runtime contributes too.
  EXPECT_GT(scheduling_cost_minutes(g, idle, 60000.0), idle_cost + 0.9);
}

TEST(Experiment, SchedulingCostBaseIncludesOpsAndEdges) {
  const graph::Graph g = models::make_chain(3, 2.0, 0.5);
  const cost::TableCostModel inner;
  const CountingCostModel counter(inner);
  // 36 runs * (3 ops * 2ms + 2 edges * 0.5ms) = 36 * 7ms = 252ms
  EXPECT_NEAR(scheduling_cost_minutes(g, counter, 0.0, 36), 252.0 / 60000.0, 1e-12);
}

}  // namespace
}  // namespace hios::core
