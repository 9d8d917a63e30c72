// Differential suite for the inter-GPU placements of HIOS-LP and HIOS-MR.
//
// Three parts of the placements are claimed exact (DESIGN.md §6d): the
// stateful graph::ValidPathFinder that replaced a per-call scan of every op,
// ListScheduleState's per-rank cost tables, and Alg. 3's per-entry chain
// tails. This suite keeps the code they replaced as in-test oracles:
//   * the stateless longest_valid_path body, compared with every extraction
//     of every HIOS-LP run (path nodes, and length printed at %.17g), and
//     with the one-shot wrappers on the same masks;
//   * Alg. 1 scoring each trial with a from-scratch sched::list_schedule
//     over the virtual CostModel, and Alg. 3 rebuilding each recorded chain
//     down to rank 0 per (i, k), each finished by the pass its scheduler
//     uses; hios-lp, inter-lp, hios-lp-iosintra, hios-mr and inter-mr must
//     give the same schedule JSON and %.17g latency.
// Corpus: small hand-made graphs; the golden benches' random DAGs (the
// Fig. 14 regression DAG and the Figs. 7-11 sweeps); the five zoo CNNs and
// 16 RandWire wirings on dual A40; two zoo CNNs on a 2 x 2 A40 cluster
// (hierarchical topology) and under speed factors; and 240 random DAGs of
// 1-200 ops at 1-8 GPUs with random speed factors and per-pair link classes
// (hios-lp-iosintra on those of at most 100 ops).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cost/analytical_model.h"
#include "cost/gpu_spec.h"
#include "cost/stage_cache.h"
#include "cost/table_model.h"
#include "graph/compiled_graph.h"
#include "graph/longest_path.h"
#include "models/examples.h"
#include "models/inception.h"
#include "models/nasnet.h"
#include "models/random_dag.h"
#include "models/randwire.h"
#include "models/resnet.h"
#include "models/squeezenet.h"
#include "sched/evaluate.h"
#include "sched/ios_intra.h"
#include "sched/list_schedule.h"
#include "sched/parallelize.h"
#include "sched/scheduler.h"
#include "util/bitset.h"

namespace hios::sched {
namespace {

using graph::NodeId;

std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// The stateless extraction ValidPathFinder replaced: dirty flags, bonuses,
/// the DP and the best-end pick recomputed over all n ops on every call.
std::optional<graph::ValidPath> oracle_longest_valid_path(const graph::Graph& g,
                                                          const DynBitset& scheduled,
                                                          const std::vector<NodeId>& topo_order) {
  const std::size_t n = g.num_nodes();
  if (scheduled.count() == n) return std::nullopt;
  auto is_scheduled = [&](NodeId v) { return scheduled.test(static_cast<std::size_t>(v)); };

  std::vector<char> dirty(n, 0);
  std::vector<double> head_bonus(n, 0.0), tail_bonus(n, 0.0);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (is_scheduled(v)) continue;
    for (graph::EdgeId e : g.in_edges(v)) {
      const graph::Edge& edge = g.edge(e);
      if (is_scheduled(edge.src)) {
        dirty[v] = 1;
        head_bonus[v] = std::max(head_bonus[v], edge.weight);
      }
    }
    for (graph::EdgeId e : g.out_edges(v)) {
      const graph::Edge& edge = g.edge(e);
      if (is_scheduled(edge.dst)) {
        dirty[v] = 1;
        tail_bonus[v] = std::max(tail_bonus[v], edge.weight);
      }
    }
  }

  constexpr double kNegInf = -1.0;
  std::vector<double> full(n, kNegInf), ext(n, kNegInf);
  std::vector<NodeId> parent(n, graph::kInvalidNode);
  for (NodeId v : topo_order) {
    if (is_scheduled(v)) continue;
    const double start_v = g.node_weight(v) + head_bonus[v];
    double best = start_v;
    NodeId best_parent = graph::kInvalidNode;
    for (graph::EdgeId e : g.in_edges(v)) {
      const graph::Edge& edge = g.edge(e);
      const NodeId u = edge.src;
      if (is_scheduled(u) || ext[u] < 0.0) continue;
      const double cand = ext[u] + edge.weight + g.node_weight(v);
      if (cand > best || (cand == best && best_parent != graph::kInvalidNode && u < best_parent)) {
        best = cand;
        best_parent = u;
      }
    }
    full[v] = best;
    parent[v] = best_parent;
    ext[v] = dirty[v] ? start_v : best;
  }

  NodeId best_end = graph::kInvalidNode;
  double best_len = kNegInf;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    if (is_scheduled(v) || full[v] < 0.0) continue;
    const double len = full[v] + tail_bonus[v];
    if (len > best_len) {
      best_len = len;
      best_end = v;
    }
  }
  EXPECT_NE(best_end, graph::kInvalidNode);
  graph::ValidPath path;
  path.length = best_len;
  NodeId cur = best_end;
  path.nodes.push_back(cur);
  while (parent[cur] != graph::kInvalidNode) {
    const NodeId prev = parent[cur];
    path.nodes.push_back(prev);
    if (dirty[prev]) break;
    cur = prev;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

/// Alg. 1 as it was: oracle extraction, and every path-on-GPU trial scored
/// by a from-scratch list schedule through the CostModel.
Schedule oracle_place_longest_path(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                                   int m) {
  const graph::Graph& g = cg.graph();
  const std::size_t n = g.num_nodes();
  std::vector<int> mapping(n, -1);
  DynBitset scheduled(n);
  while (auto path = oracle_longest_valid_path(g, scheduled, cg.topo_order())) {
    for (NodeId v : path->nodes) scheduled.set(static_cast<std::size_t>(v));
    int best_gpu = 0;
    double best_latency = std::numeric_limits<double>::infinity();
    for (int gpu = 0; gpu < m; ++gpu) {
      for (NodeId v : path->nodes) mapping[static_cast<std::size_t>(v)] = gpu;
      const double latency = list_schedule(g, mapping, cg.priority_order(), m, cost).latency_ms;
      if (gpu == 0 || latency < best_latency) {
        best_latency = latency;
        best_gpu = gpu;
      }
    }
    for (NodeId v : path->nodes) mapping[static_cast<std::size_t>(v)] = best_gpu;
  }
  Schedule placed(m);
  for (NodeId v : cg.priority_order()) placed.push_op(mapping[static_cast<std::size_t>(v)], v);
  return placed;
}

/// Alg. 3 as it was: each recorded chain rebuilt down to rank 0 per (i, k),
/// with each GPU's last finish folded from the rebuilt chain.
Schedule oracle_place_mapping_recording(const graph::CompiledGraph& cg,
                                        const cost::CostModel& cost, int m) {
  const graph::Graph& g = cg.graph();
  const int n = static_cast<int>(g.num_nodes());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (n == 0) return Schedule(m);
  const std::vector<NodeId>& order = cg.priority_order();
  const auto un = static_cast<std::size_t>(n), um = static_cast<std::size_t>(m);
  std::vector<std::vector<double>> t(un, std::vector<double>(um, kInf));
  std::vector<std::vector<int>> back(un, std::vector<int>(um, -1));
  t[0][0] = cost.node_time(g, order[0], 0);
  back[0][0] = 0;
  std::vector<double> fin(un), tail(um);
  std::vector<int> gpu_of(un);
  for (int i = 1; i < n; ++i) {
    const NodeId vi = order[static_cast<std::size_t>(i)];
    for (int k = 0; k < std::min(m, i); ++k) {
      if (t[static_cast<std::size_t>(i - 1)][static_cast<std::size_t>(k)] == kInf) continue;
      std::ranges::fill(tail, 0.0);
      int cur = k;
      for (int l = i - 1; l >= 0; --l) {
        const double f = t[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
        fin[static_cast<std::size_t>(l)] = f;
        gpu_of[static_cast<std::size_t>(l)] = cur;
        tail[static_cast<std::size_t>(cur)] = std::max(tail[static_cast<std::size_t>(cur)], f);
        cur = back[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
      }
      bool feasible = true;
      for (graph::EdgeId e : cg.in_edges(vi))
        feasible = feasible && fin[static_cast<std::size_t>(cg.rank(g.edge(e).src))] != kInf;
      if (!feasible) continue;
      for (int j = 0; j < std::min(m, i + 1); ++j) {
        double start = tail[static_cast<std::size_t>(j)];
        for (graph::EdgeId e : cg.in_edges(vi)) {
          const auto l = static_cast<std::size_t>(cg.rank(g.edge(e).src));
          start = std::max(start, fin[l] + cost.transfer_time(g, e, gpu_of[l], j));
        }
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
  long long paths = 0;
};

/// Every extraction of the HIOS-LP run on `g` (which depends on the paths
/// alone, not on the GPU trials): the finder and both one-shot wrappers
/// against the oracle on the same mask.
void diff_extractions(const graph::CompiledGraph& cg, Tally& tally) {
  const graph::Graph& g = cg.graph();
  graph::ValidPathFinder finder(g, cg.topo_order());
  DynBitset scheduled(g.num_nodes());
  for (;;) {
    const auto want = oracle_longest_valid_path(g, scheduled, cg.topo_order());
    const auto wrapped = graph::longest_valid_path(g, scheduled, cg.topo_order());
    const auto got = finder.next();
    ASSERT_EQ(got.has_value(), want.has_value());
    ASSERT_EQ(wrapped.has_value(), want.has_value());
    if (!want) break;
    ASSERT_EQ(got->nodes, want->nodes) << "extraction " << tally.paths;
    ASSERT_EQ(exact(got->length), exact(want->length));
    ASSERT_EQ(wrapped->nodes, want->nodes);
    ASSERT_EQ(exact(wrapped->length), exact(want->length));
    if (tally.paths % 16 == 0) {  // the topological sort is the costly part
      const auto sorted = graph::longest_valid_path(g, scheduled);
      ASSERT_TRUE(sorted.has_value());
      ASSERT_EQ(sorted->nodes, want->nodes);
    }
    for (NodeId v : want->nodes) scheduled.set(static_cast<std::size_t>(v));
    ++tally.paths;
  }
}

/// The extractions, then the inter-GPU scheduler names against the oracle
/// placements finished by the same pass as their scheduler.
/// `hios-lp-iosintra` runs the IOS DP per GPU, which costs far more than
/// the rest; `ios_intra` = false leaves it out.
void diff_case(const graph::Graph& g, const cost::CostModel& cost, int m, Tally& tally,
               bool ios_intra = true) {
  SCOPED_TRACE(g.name() + ": ops " + std::to_string(g.num_nodes()) + ", gpus " +
               std::to_string(m));
  const graph::CompiledGraph cg(g);
  diff_extractions(cg, tally);

  SchedulerConfig config;
  config.num_gpus = m;
  const cost::StageTimeCache cached(cost);
  const Schedule lp = oracle_place_longest_path(cg, cached, m);
  const Schedule mr = oracle_place_mapping_recording(cg, cached, m);
  const int window = std::min(config.window, config.max_streams);
  for (const char* name : {"inter-lp", "hios-lp", "hios-lp-iosintra", "inter-mr", "hios-mr"}) {
    const std::string alg = name;
    if (alg == "hios-lp-iosintra" && !ios_intra) continue;
    const Schedule& placed = alg.find("lp") != std::string::npos ? lp : mr;
    Schedule want;
    double want_latency = 0.0;
    if (alg.starts_with("inter-")) {
      const auto eval = evaluate_schedule(g, placed, cached);
      ASSERT_TRUE(eval.has_value()) << alg;
      want = placed;
      want_latency = eval->latency_ms;
    } else if (alg == "hios-lp-iosintra") {
      const ScheduleResult r = ios_intra_pass(g, placed, cached, config);
      want = r.schedule;
      want_latency = r.latency_ms;
    } else {
      const ParallelizeResult r = parallelize(cg, placed, cached, window);
      want = r.schedule;
      want_latency = r.latency_ms;
    }
    const ScheduleResult got = make_scheduler(alg)->schedule(g, cost, config);
    EXPECT_EQ(got.schedule.to_json(g).dump(), want.to_json(g).dump()) << alg;
    EXPECT_EQ(exact(got.latency_ms), exact(want_latency)) << alg;
  }
  ++tally.cases;
}

TEST(PlacementDiff, SmallGraphsMatchOracles) {
  const cost::TableCostModel cost;
  Tally tally;
  graph::Graph empty("empty");
  graph::Graph one("one");
  one.add_node("only", 2.5);
  for (int m : {1, 2, 3}) {
    diff_case(empty, cost, m, tally);
    diff_case(one, cost, m, tally);
    diff_case(models::make_fig4_graph(), cost, m, tally);
    diff_case(models::make_chain(6), cost, m, tally);
    diff_case(models::make_fork_join(5), cost, m, tally);
    diff_case(models::make_twin_chains(5), cost, m, tally);
  }
  EXPECT_EQ(tally.cases, 18);
}

// The golden benches' graphs: the Fig. 14 regression DAG, and the Figs.
// 7-11 sweeps over the §V-A random DAG (GPUs, ops, deps, layers, comm
// ratio), one instance per point.
TEST(PlacementDiff, GoldenInputsMatchOracles) {
  const cost::TableCostModel cost;
  Tally tally;
  models::RandomDagParams fig14;
  fig14.num_ops = 512;
  fig14.num_layers = 22;
  fig14.num_deps = 1024;
  fig14.seed = 7;
  diff_case(models::random_dag(fig14), cost, 4, tally);

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
  for (const auto& [p, gpus] : sweep) diff_case(models::random_dag(p), cost, gpus, tally);
  EXPECT_EQ(tally.cases, 1 + static_cast<int>(sweep.size()));
  EXPECT_GT(tally.paths, 1000);
}

TEST(PlacementDiff, ZooModelsMatchOracles) {
  std::vector<ops::Model> zoo = {models::make_inception_v3(), models::make_nasnet(),
                                 models::make_resnet50(), models::make_squeezenet(),
                                 models::make_randwire()};
  for (uint64_t k = 0; k < 16; ++k) {
    models::RandwireOptions rw;
    rw.seed = 100 + k + 2;
    zoo.push_back(models::make_randwire(rw));
  }
  const cost::Platform platform = cost::make_dual_a40_nvlink();
  Tally tally;
  for (const ops::Model& model : zoo) {
    const cost::ProfiledModel pm = cost::profile_model(model, platform);
    diff_case(pm.graph, *pm.cost, platform.num_gpus, tally);
  }
  EXPECT_EQ(tally.cases, 21);
}

// A hierarchical topology (2 nodes x 2 GPUs: three link classes counting
// the same GPU) and heterogeneous speeds on the table model.
TEST(PlacementDiff, ClusterAndHeterogeneousModelsMatchOracles) {
  const cost::Platform cluster = cost::make_a40_cluster(2, 2);
  Tally tally;
  const std::vector<ops::Model> models = {models::make_inception_v3(), models::make_squeezenet()};
  for (const ops::Model& model : models) {
    const cost::ProfiledModel pm = cost::profile_model(model, cluster);
    ASSERT_FALSE(pm.cost->topology().empty());
    diff_case(pm.graph, *pm.cost, cluster.num_gpus, tally);

    cost::TableCostModel hetero;
    hetero.set_speed_factors({1.0, 0.5, 2.0, 1.25});
    hetero.set_topology(cluster.topology);
    diff_case(pm.graph, hetero, 4, tally);
  }
  EXPECT_EQ(tally.cases, 4);
}

TEST(PlacementDiff, RandomDagsMatchOracles) {
  std::mt19937_64 rng(0x91ACE);
  Tally tally;
  for (int iter = 0; iter < 240; ++iter) {
    models::RandomDagParams p;
    p.num_ops = 1 + static_cast<int>(rng() % 200);
    p.num_layers = 1 + static_cast<int>(rng() % static_cast<uint64_t>(std::min(p.num_ops, 20)));
    p.num_deps = static_cast<int>(rng() % static_cast<uint64_t>(3 * p.num_ops));
    p.comm_ratio = 0.2 + 0.2 * static_cast<double>(rng() % 8);
    p.seed = rng();
    const graph::Graph g = models::random_dag(p);
    const int m = 1 + iter % 8;
    cost::TableCostModel cost;
    if (rng() % 3 == 0) {
      std::vector<double> speeds;
      for (int i = 0; i < m; ++i) speeds.push_back(0.5 + 0.25 * static_cast<double>(rng() % 7));
      cost.set_speed_factors(std::move(speeds));
    }
    if (rng() % 2 == 0) {
      // Up to three cross-pair link classes, some pairs sharing one.
      const cost::LinkClass links[] = {{1.0, 0.0}, {2.5, 0.05}, {0.5, 0.2}};
      cost::Topology topology = cost::Topology::uniform(m);
      for (int a = 0; a < m; ++a)
        for (int b = a + 1; b < m; ++b) topology.set(a, b, links[rng() % 3]);
      cost.set_topology(std::move(topology));
    }
    diff_case(g, cost, m, tally, /*ios_intra=*/p.num_ops <= 100);
  }
  EXPECT_EQ(tally.cases, 240);
}

}  // namespace
}  // namespace hios::sched
