// Differential suite for the two pruned hot loops of schedule().
//
// parallelize() skips every Alg. 2 window that holds no stage of the
// committed state's critical path, and HIOS-MR's Alg. 3 backtracks each
// recorded chain once per predecessor GPU instead of once per (j, k) pair.
// Both are claimed exact (DESIGN.md §6d), so this suite keeps the loops they
// replace as in-test oracles and demands bit-identical output: schedule
// JSON, latency printed at %.17g, and Alg. 2's counters. The oracle Alg. 2
// also evaluates every window the pruned loop would skip and asserts that
// its latency is >= the current one. Corpus: the golden benches' graphs
// (the Fig. 14 regression DAG and the Figs. 7-11 random-DAG sweeps), the
// zoo CNNs at their default sizes on dual A40, and 240 random DAGs x 1-4
// GPUs x windows 2-5.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "cost/analytical_model.h"
#include "cost/gpu_spec.h"
#include "cost/stage_cache.h"
#include "cost/table_model.h"
#include "graph/compiled_graph.h"
#include "models/examples.h"
#include "models/inception.h"
#include "models/nasnet.h"
#include "models/random_dag.h"
#include "models/resnet.h"
#include "models/squeezenet.h"
#include "sched/core/schedule_state.h"
#include "sched/parallelize.h"
#include "sched/scheduler.h"

namespace hios::sched {
namespace {

std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

struct OracleResult {
  Schedule schedule;
  double latency_ms = 0.0;
  int merges_accepted = 0;
  int candidates_tried = 0;
  int pruned_checked = 0;  ///< windows the pruned loop skips, evaluated here
};

/// Alg. 2 without pruning: every window is scored with apply -> evaluate ->
/// undo, as parallelize() did before the critical-path rule. Windows the
/// rule would skip must not beat the current latency.
OracleResult parallelize_unpruned(const graph::CompiledGraph& cg, const Schedule& schedule,
                                  const cost::CostModel& cost, int window) {
  OracleResult result;
  ScheduleState state(cg, cost);
  state.load(schedule);
  double latency = *state.evaluate_latency();
  if (window >= 2 && cg.num_nodes() >= 2) {
    const std::vector<graph::NodeId>& order = cg.priority_order();
    for (std::size_t oi = 0; oi + 1 < order.size(); ++oi) {
      const int sid = state.stage_of(order[oi]);
      if (state.stage_ops(sid).size() > 1) continue;
      const int gpu = state.gpu_of_stage(sid);
      const int pos = state.position_of(sid);
      double best_latency = latency;
      int best_extent = 0;
      std::size_t total_ops = 1;
      for (int extent = 1; pos + extent < state.stage_count(gpu); ++extent) {
        total_ops += state.stage_ops(state.stage_at(gpu, pos + extent)).size();
        if (total_ops > static_cast<std::size_t>(window)) break;
        bool ok = true;
        for (int a = pos; a < pos + extent && ok; ++a)
          for (int b = a + 1; b <= pos + extent && ok; ++b)
            ok = state.stages_independent(state.stage_at(gpu, a), state.stage_at(gpu, b));
        if (!ok) break;

        const bool pruned = !state.window_on_critical_path(gpu, pos, extent);
        state.apply_merge(gpu, pos, extent);
        const auto cand = state.evaluate_latency();
        state.undo_merge();
        ++result.candidates_tried;
        if (pruned) {
          ++result.pruned_checked;
          if (cand.has_value()) {
            EXPECT_GE(*cand, latency) << "pruned window [" << pos << ", " << pos + extent
                                      << "] on GPU " << gpu << " beats the current latency";
          }
        }
        if (cand.has_value() && *cand < best_latency) {
          best_latency = *cand;
          best_extent = extent;
        }
      }
      if (best_extent == 0) continue;
      state.apply_merge(gpu, pos, best_extent);
      state.commit_merge();
      latency = best_latency;
      ++result.merges_accepted;
    }
  }
  result.schedule = state.extract();
  result.latency_ms = latency;
  return result;
}

/// Alg. 3 as it was before the loop swap: j outer, k inner, and the
/// recorded chain rebuilt (and every earlier op rescanned) per (j, k).
Schedule mapping_recording_per_jk(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                                  int m) {
  const graph::Graph& g = cg.graph();
  const int n = static_cast<int>(g.num_nodes());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (n == 0) return Schedule(m);
  const std::vector<graph::NodeId>& order = cg.priority_order();
  const auto un = static_cast<std::size_t>(n), um = static_cast<std::size_t>(m);
  std::vector<std::vector<double>> t(un, std::vector<double>(um, kInf));
  std::vector<std::vector<int>> back(un, std::vector<int>(um, -1));
  t[0][0] = cost.node_time(g, order[0], 0);
  back[0][0] = 0;
  std::vector<double> fin(un);
  std::vector<int> gpu_of(un);
  for (int i = 1; i < n; ++i) {
    const graph::NodeId vi = order[static_cast<std::size_t>(i)];
    for (int j = 0; j < std::min(m, i + 1); ++j) {
      for (int k = 0; k < std::min(m, i); ++k) {
        if (t[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(k)] == kInf) continue;
        int cur = k;
        for (int l = i - 1; l >= 0; --l) {
          fin[static_cast<std::size_t>(l)] =
              t[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
          gpu_of[static_cast<std::size_t>(l)] = cur;
          cur = back[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
        }
        double start = 0.0;
        for (int l = 0; l < i; ++l)
          if (gpu_of[static_cast<std::size_t>(l)] == j)
            start = std::max(start, fin[static_cast<std::size_t>(l)]);
        bool feasible = true;
        for (graph::EdgeId e : cg.in_edges(vi)) {
          const int l = cg.rank(g.edge(e).src);
          if (fin[static_cast<std::size_t>(l)] == kInf) {
            feasible = false;
            break;
          }
          start = std::max(start, fin[static_cast<std::size_t>(l)] +
                                      cost.transfer_time(g, e, gpu_of[static_cast<std::size_t>(l)],
                                                         j));
        }
        if (!feasible) continue;
        const double finish = start + cost.node_time(g, vi, j);
        if (finish < t[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
          t[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = finish;
          back[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = k;
        }
      }
    }
  }
  int best_j = 0;
  for (int j = 1; j < m; ++j)
    if (t[un - 1][static_cast<std::size_t>(j)] < t[un - 1][static_cast<std::size_t>(best_j)])
      best_j = j;
  std::vector<int> final_gpu(un);
  int cur = best_j;
  for (int i = n - 1; i >= 0; --i) {
    final_gpu[static_cast<std::size_t>(i)] = cur;
    cur = back[static_cast<std::size_t>(i)][static_cast<std::size_t>(cur)];
  }
  Schedule schedule(m);
  for (int i = 0; i < n; ++i)
    schedule.push_op(final_gpu[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(i)]);
  return schedule;
}

struct Tally {
  int cases = 0;
  long long tried = 0, evaluated = 0, pruned_checked = 0;
};

/// Diffs one graph: Alg. 3 against its per-(j, k) oracle, then HIOS-LP and
/// HIOS-MR (placement + pruned Alg. 2, through the public scheduler) against
/// the same placement finished by the unpruned oracle, plus parallelize()
/// itself on each placement.
void diff_graph(const graph::Graph& g, const cost::CostModel& cost, int m, int window,
                Tally& tally) {
  SCOPED_TRACE("ops " + std::to_string(g.num_nodes()) + ", gpus " + std::to_string(m) +
               ", window " + std::to_string(window));
  const graph::CompiledGraph cg(g);
  const cost::StageTimeCache cached(cost);
  SchedulerConfig config;
  config.num_gpus = m;
  config.window = window;

  const ScheduleResult inter_mr = make_scheduler("inter-mr")->schedule(g, cost, config);
  EXPECT_EQ(inter_mr.schedule.to_json(g).dump(),
            mapping_recording_per_jk(cg, cost, m).to_json(g).dump());

  for (const char* name : {"lp", "mr"}) {
    const Schedule placed =
        make_scheduler(std::string("inter-") + name)->schedule(g, cost, config).schedule;
    const OracleResult want = parallelize_unpruned(cg, placed, cached, window);
    const ParallelizeResult got = parallelize(cg, placed, cached, window);
    const ScheduleResult full =
        make_scheduler(std::string("hios-") + name)->schedule(g, cost, config);
    const std::string want_json = want.schedule.to_json(g).dump();
    EXPECT_EQ(got.schedule.to_json(g).dump(), want_json) << name;
    EXPECT_EQ(full.schedule.to_json(g).dump(), want_json) << name;
    EXPECT_EQ(exact(got.latency_ms), exact(want.latency_ms)) << name;
    EXPECT_EQ(exact(full.latency_ms), exact(want.latency_ms)) << name;
    EXPECT_EQ(got.merges_accepted, want.merges_accepted) << name;
    EXPECT_EQ(got.candidates_tried, want.candidates_tried) << name;
    EXPECT_LE(got.candidates_evaluated, got.candidates_tried) << name;
    EXPECT_EQ(got.candidates_tried - got.candidates_evaluated, want.pruned_checked) << name;
    tally.tried += got.candidates_tried;
    tally.evaluated += got.candidates_evaluated;
    tally.pruned_checked += want.pruned_checked;
  }
  ++tally.cases;
}

TEST(SchedPrune, RandomDagsMatchUnprunedOracles) {
  std::mt19937_64 rng(0x9A11);
  Tally tally;
  for (int iter = 0; iter < 240; ++iter) {
    models::RandomDagParams p;
    p.num_ops = 12 + static_cast<int>(rng() % 109);
    p.num_layers = 3 + static_cast<int>(rng() % 10);
    p.num_deps = p.num_ops + static_cast<int>(rng() % (2 * p.num_ops));
    p.seed = rng();
    const graph::Graph g = models::random_dag(p);
    const int m = 1 + iter % 4;
    const int window = 2 + (iter / 4) % 4;
    cost::TableCostModel cost;
    if (rng() % 3 == 0) {
      std::vector<double> speeds;
      for (int i = 0; i < m; ++i) speeds.push_back(0.5 + 0.25 * static_cast<double>(rng() % 7));
      cost.set_speed_factors(std::move(speeds));
    }
    if (rng() % 3 == 0)
      cost.set_topology(cost::Topology::hierarchical(m, 2, cost::LinkClass{2.5, 0.05}));
    diff_graph(g, cost, m, window, tally);
  }
  EXPECT_EQ(tally.cases, 240);
  // The rule really skips windows, and every skipped one was checked.
  EXPECT_GT(tally.pruned_checked, tally.tried / 4);
  EXPECT_EQ(tally.tried - tally.evaluated, tally.pruned_checked);
}

// The golden benches' graphs: the Fig. 14 regression DAG at w = 2..5, and
// the Figs. 7-11 sweeps over the §V-A random DAG (GPUs, ops, deps, layers,
// comm ratio), two instances per point, at the default window.
TEST(SchedPrune, GoldenInputsMatchUnprunedOracles) {
  models::RandomDagParams fig14;
  fig14.num_ops = 512;
  fig14.num_layers = 22;
  fig14.num_deps = 1024;
  fig14.seed = 7;
  const graph::Graph g = models::random_dag(fig14);
  Tally tally;
  for (int window = 2; window <= 5; ++window)
    diff_graph(g, cost::TableCostModel{}, 4, window, tally);
  EXPECT_LT(tally.evaluated, tally.tried / 2);

  std::vector<std::pair<models::RandomDagParams, int>> sweep;  // (params, GPUs)
  for (int gpus : {2, 4, 8, 12}) sweep.emplace_back(models::RandomDagParams{}, gpus);
  for (int ops : {100, 300}) {
    models::RandomDagParams p;
    p.num_ops = ops;
    p.num_deps = 2 * ops;
    sweep.emplace_back(p, 4);
  }
  for (int deps : {300, 600}) {
    models::RandomDagParams p;
    p.num_deps = deps;
    sweep.emplace_back(p, 4);
  }
  for (int layers : {6, 30}) {
    models::RandomDagParams p;
    p.num_layers = layers;
    sweep.emplace_back(p, 4);
  }
  for (double comm : {0.4, 1.6}) {
    models::RandomDagParams p;
    p.comm_ratio = comm;
    sweep.emplace_back(p, 4);
  }
  for (auto [p, gpus] : sweep) {
    for (uint64_t seed : {0u, 1u}) {
      p.seed = seed;
      diff_graph(models::random_dag(p), cost::TableCostModel{}, gpus, SchedulerConfig{}.window,
                 tally);
    }
  }
  EXPECT_EQ(tally.cases, 4 + 2 * static_cast<int>(sweep.size()));
}

TEST(SchedPrune, ZooModelsMatchUnprunedOracles) {
  const std::vector<ops::Model> zoo = {models::make_inception_v3(), models::make_nasnet(),
                                       models::make_resnet50(), models::make_squeezenet()};
  Tally tally;
  for (const ops::Model& model : zoo) {
    const cost::ProfiledModel pm = cost::profile_model(model, cost::make_dual_a40_nvlink());
    for (int window : {2, 4}) diff_graph(pm.graph, *pm.cost, 2, window, tally);
  }
  EXPECT_EQ(tally.cases, 8);
}

// The marked path on hand-built states: a window of short ops beside a long
// one is off the path; on a deadlocked state no path exists and nothing is
// pruned.
TEST(SchedPrune, CriticalPathMarksOnlyTheBindingChain) {
  graph::Graph g("three");
  g.add_node("long", 10.0);
  g.add_node("b", 1.0);
  g.add_node("c", 1.0);
  const graph::CompiledGraph cg(g);
  const cost::TableCostModel cost;
  Schedule s(2);
  s.push_op(0, 0);
  s.push_op(1, 1);
  s.push_op(1, 2);
  ScheduleState state(cg, cost);
  state.load(s);
  EXPECT_FALSE(state.window_on_critical_path(1, 0, 1));
  EXPECT_TRUE(state.window_on_critical_path(0, 0, 0));

  // Make GPU 1 the longer chain: now its window is on the path.
  graph::Graph h("three-b");
  h.add_node("short", 1.0);
  h.add_node("b", 6.0);
  h.add_node("c", 6.0);
  const graph::CompiledGraph ch(h);
  ScheduleState other(ch, cost);
  other.load(s);
  EXPECT_TRUE(other.window_on_critical_path(1, 0, 1));

  // Chain 0 -> 1 -> 2 run in reverse on one GPU deadlocks.
  const graph::Graph chain = models::make_chain(3);
  const graph::CompiledGraph cc(chain);
  Schedule reversed(1);
  for (graph::NodeId v : {2, 1, 0}) reversed.push_op(0, v);
  ScheduleState stuck(cc, cost);
  stuck.load(reversed);
  ASSERT_FALSE(stuck.evaluate_latency().has_value());
  EXPECT_TRUE(stuck.window_on_critical_path(0, 0, 1));
  EXPECT_TRUE(stuck.window_on_critical_path(0, 1, 1));
}

}  // namespace
}  // namespace hios::sched
