// Differential suite for the IOS DP (place_ios, DESIGN.md §6d).
//
// place_ios keeps its down-sets in a flat word arena indexed by an
// open-addressing table of Zobrist hashes, and merges each transition as
// subset enumeration produces it. The claim is that only the data layout
// changed, so this suite keeps the map-based DP it replaced as an in-test
// oracle and demands, for every case: identical schedule JSON, latency at
// %.17g, the same ordered sequence of stage_time queries, the same
// StageTimeCache hits and misses, and the same CountingCostModel distinct
// groups and measured_ms (the inputs of Fig. 14's minutes).
//
// Corpus: empty and one-node graphs under every config below; the five zoo
// CNNs at paper sizes and 16 RandWire wirings on dual A40 (default config,
// down-sets of up to 6 words); 240 random DAGs of 1-200 ops (down-sets of
// 1, 2, 3 and 4 words), each under one config in turn: default (on the
// one-word graphs), max_streams = 1, ios_frontier_cap = 1..3 (truncation
// active) and ios_beam_width = 1..2; and 24 random DAGs of <= 12 ops under
// the exact config.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/experiment.h"
#include "cost/analytical_model.h"
#include "cost/gpu_spec.h"
#include "cost/stage_cache.h"
#include "cost/table_model.h"
#include "graph/compiled_graph.h"
#include "models/inception.h"
#include "models/nasnet.h"
#include "models/random_dag.h"
#include "models/randwire.h"
#include "models/resnet.h"
#include "models/squeezenet.h"
#include "sched/evaluate.h"
#include "sched/placement.h"
#include "util/bitset.h"

namespace hios::sched {
namespace {

// --- Oracle: the map-based DP place_ios replaced ------------------------------

struct OracleState {
  DynBitset done;
  double latency = std::numeric_limits<double>::infinity();
  int parent = -1;
  std::vector<graph::NodeId> stage;
};

struct OracleCandidate {
  std::vector<graph::NodeId> stage;
  double t_stage = 0.0;
};

Schedule oracle_place_ios(const graph::CompiledGraph& cg, const cost::CostModel& cost,
                          const SchedulerConfig& config) {
  const graph::Graph& g = cg.graph();
  const std::size_t n = g.num_nodes();
  if (n == 0) return Schedule(1);
  const std::vector<double>& priority = cg.priority();

  std::vector<OracleState> states;
  std::unordered_map<DynBitset, int, DynBitsetHash> index;
  std::vector<std::vector<int>> by_size(n + 1);

  OracleState root;
  root.done = DynBitset(n);
  root.latency = 0.0;
  states.push_back(root);
  index.emplace(states[0].done, 0);
  by_size[0].push_back(0);

  std::vector<DynBitset> preds(n, DynBitset(n));
  for (const graph::Edge& e : g.edges())
    preds[static_cast<std::size_t>(e.dst)].set(static_cast<std::size_t>(e.src));

  const int max_stage = std::max(1, std::min(config.ios_max_stage_ops, config.max_streams));
  const std::size_t frontier_cap = static_cast<std::size_t>(std::max(1, config.ios_frontier_cap));
  const std::size_t beam = static_cast<std::size_t>(std::max(1, config.ios_beam_width));

  auto expand_state = [&](int sid, std::vector<OracleCandidate>& out) {
    out.clear();
    std::vector<graph::NodeId> ready;
    const DynBitset& done = states[static_cast<std::size_t>(sid)].done;
    for (std::size_t v = 0; v < n; ++v) {
      if (done.test(v)) continue;
      if (done.contains_all(preds[v])) ready.push_back(static_cast<graph::NodeId>(v));
    }
    if (ready.size() > frontier_cap) {
      std::sort(ready.begin(), ready.end(), [&](graph::NodeId a, graph::NodeId b) {
        return priority[static_cast<std::size_t>(a)] > priority[static_cast<std::size_t>(b)];
      });
      ready.resize(frontier_cap);
    }
    std::vector<graph::NodeId> stage;
    auto recurse = [&](auto&& self, std::size_t from) -> void {
      if (!stage.empty()) {
        out.push_back(OracleCandidate{
            stage, cost.stage_time(g, std::span<const graph::NodeId>(stage))});
      }
      if (stage.size() >= static_cast<std::size_t>(max_stage)) return;
      for (std::size_t i = from; i < ready.size(); ++i) {
        stage.push_back(ready[i]);
        self(self, i + 1);
        stage.pop_back();
      }
    };
    recurse(recurse, 0);
  };

  auto merge_candidate = [&](int sid, const OracleCandidate& cand) {
    const double latency = states[static_cast<std::size_t>(sid)].latency + cand.t_stage;
    DynBitset next_done = states[static_cast<std::size_t>(sid)].done;
    for (graph::NodeId v : cand.stage) next_done.set(static_cast<std::size_t>(v));
    auto [it, inserted] = index.emplace(next_done, static_cast<int>(states.size()));
    if (inserted) {
      OracleState next;
      next.done = std::move(next_done);
      next.latency = latency;
      next.parent = sid;
      next.stage = cand.stage;
      states.push_back(std::move(next));
      by_size[states.back().done.count()].push_back(it->second);
    } else if (latency < states[static_cast<std::size_t>(it->second)].latency) {
      OracleState& existing = states[static_cast<std::size_t>(it->second)];
      existing.latency = latency;
      existing.parent = sid;
      existing.stage = cand.stage;
    }
  };

  std::vector<OracleCandidate> buffer;
  for (std::size_t size = 0; size < n; ++size) {
    auto& bucket = by_size[size];
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end(), [&](int a, int b) {
      return states[static_cast<std::size_t>(a)].latency <
             states[static_cast<std::size_t>(b)].latency;
    });
    const std::size_t expand = std::min(beam, bucket.size());
    for (std::size_t rank = 0; rank < expand; ++rank) {
      expand_state(bucket[rank], buffer);
      for (const OracleCandidate& cand : buffer) merge_candidate(bucket[rank], cand);
    }
  }

  int best = -1;
  for (int sid : by_size[n]) {
    if (best < 0 || states[static_cast<std::size_t>(sid)].latency <
                        states[static_cast<std::size_t>(best)].latency)
      best = sid;
  }
  std::vector<std::vector<graph::NodeId>> stages_rev;
  for (int sid = best; sid > 0; sid = states[static_cast<std::size_t>(sid)].parent)
    stages_rev.push_back(states[static_cast<std::size_t>(sid)].stage);
  Schedule schedule(1);
  for (auto it = stages_rev.rbegin(); it != stages_rev.rend(); ++it)
    schedule.gpus[0].push_back(Stage{*it});
  return schedule;
}

// --- Harness ------------------------------------------------------------------

/// Forwards stage_time and records every query in order, as op ids with a
/// -1 after each stage.
class RecordingCostModel final : public cost::CostModel {
 public:
  explicit RecordingCostModel(const cost::CostModel& inner) : inner_(inner) {}

  double stage_time(const graph::Graph& g,
                    std::span<const graph::NodeId> stage) const override {
    queries_.insert(queries_.end(), stage.begin(), stage.end());
    queries_.push_back(-1);
    return inner_.stage_time(g, stage);
  }
  double demand(const graph::Graph& g, graph::NodeId v) const override {
    return inner_.demand(g, v);
  }
  const std::vector<graph::NodeId>& queries() const { return queries_; }

 private:
  const cost::CostModel& inner_;
  mutable std::vector<graph::NodeId> queries_;
};

/// Everything one DP run exposes: its schedule and its cost-model traffic.
struct Run {
  std::string json;
  std::string latency;
  std::vector<graph::NodeId> queries;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t distinct_groups = 0;
  std::string measured_ms;
};

std::string g17(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// The cost stack of a Fig. 14 run: the scheduler's StageTimeCache over a
/// CountingCostModel over the profiled model, with the recorder on top.
Run run_dp(Schedule (*place)(const graph::CompiledGraph&, const cost::CostModel&,
                             const SchedulerConfig&),
           const graph::Graph& g, const cost::CostModel& base, const SchedulerConfig& config) {
  const core::CountingCostModel counting(base);
  const cost::StageTimeCache cache(counting);
  const RecordingCostModel recorder(cache);
  const Schedule schedule = place(graph::CompiledGraph(g), recorder, config);
  const auto eval = evaluate_schedule(g, schedule, base);
  Run r;
  r.json = schedule.to_json(g).dump();
  r.latency = eval ? g17(eval->latency_ms) : "deadlock";
  r.queries = recorder.queries();
  r.cache_hits = cache.hits();
  r.cache_misses = cache.misses();
  r.distinct_groups = counting.distinct_stages();
  r.measured_ms = g17(counting.measured_ms());
  return r;
}

void expect_same_as_oracle(const std::string& label, const graph::Graph& g,
                           const cost::CostModel& base, const SchedulerConfig& config) {
  SCOPED_TRACE(label);
  const Run want = run_dp(oracle_place_ios, g, base, config);
  const Run got = run_dp(place_ios, g, base, config);
  EXPECT_EQ(got.json, want.json);
  EXPECT_EQ(got.latency, want.latency);
  ASSERT_EQ(got.queries.size(), want.queries.size()) << "stage_time query count differs";
  const auto diff = std::mismatch(got.queries.begin(), got.queries.end(), want.queries.begin());
  EXPECT_TRUE(diff.first == got.queries.end())
      << "stage_time queries differ at position " << (diff.first - got.queries.begin());
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_misses, want.cache_misses);
  EXPECT_EQ(got.distinct_groups, want.distinct_groups);
  EXPECT_EQ(got.measured_ms, want.measured_ms);
}

SchedulerConfig exact_ios_config() {
  SchedulerConfig c;
  c.ios_max_stage_ops = 16;
  c.ios_frontier_cap = 64;
  c.ios_beam_width = 1 << 20;
  return c;
}

/// Default, the pruned configs, and last the exact config (for graphs small
/// enough for an unpruned DP).
std::vector<SchedulerConfig> pruning_configs() {
  std::vector<SchedulerConfig> configs(1);
  configs.emplace_back().max_streams = 1;
  for (int cap = 1; cap <= 3; ++cap) configs.emplace_back().ios_frontier_cap = cap;
  for (int beam = 1; beam <= 2; ++beam) configs.emplace_back().ios_beam_width = beam;
  configs.push_back(exact_ios_config());
  return configs;
}

// --- Cases --------------------------------------------------------------------

TEST(IosDp, EmptyAndOneNodeGraphsMatchOracle) {
  const cost::TableCostModel table;
  graph::Graph one("one");
  one.add_node("a", 1.5);
  for (const SchedulerConfig& config : pruning_configs()) {
    expect_same_as_oracle("empty", graph::Graph("empty"), table, config);
    expect_same_as_oracle("one", one, table, config);
  }
}

TEST(IosDp, ZooModelsMatchOracle) {
  const cost::Platform platform = cost::make_dual_a40_nvlink();
  std::vector<ops::Model> zoo = {models::make_inception_v3(), models::make_nasnet(),
                                 models::make_resnet50(), models::make_squeezenet(),
                                 models::make_randwire()};
  for (uint64_t seed = 2; seed < 18; ++seed) {
    models::RandwireOptions rw;
    rw.seed = seed;
    zoo.push_back(models::make_randwire(rw));
  }
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const cost::ProfiledModel pm = cost::profile_model(zoo[i], platform);
    SchedulerConfig config;
    config.num_gpus = 2;
    expect_same_as_oracle(zoo[i].name() + " #" + std::to_string(i), pm.graph, *pm.cost, config);
  }
}

TEST(IosDp, RandomDagsMatchOracle) {
  const cost::TableCostModel table;
  const std::vector<SchedulerConfig> configs = pruning_configs();
  constexpr int kLow[] = {1, 65, 129, 193};   // 1-, 2-, 3- and 4-word down-sets
  constexpr int kHigh[] = {64, 128, 192, 200};
  std::mt19937_64 rng(20260415);
  for (int i = 0; i < 240; ++i) {
    models::RandomDagParams p;
    p.num_ops = kLow[i % 4] + static_cast<int>(rng() % (kHigh[i % 4] - kLow[i % 4] + 1));
    p.num_layers = std::clamp(p.num_ops / (2 + static_cast<int>(rng() % 8)), 1, p.num_ops);
    p.num_deps = static_cast<int>(rng() % (2 * p.num_ops + 1));
    p.seed = 5000 + static_cast<uint64_t>(i);
    // Cycle through the configs but the exact one. The default config (24
    // states x up to 175 stages per down-set size) runs on the one-word
    // graphs here and on the multi-word zoo models above, to keep the suite
    // quick under ASan.
    std::size_t c = static_cast<std::size_t>(i) % (configs.size() - 1);
    if (c == 0 && p.num_ops > 64) c = 1 + static_cast<std::size_t>(i / 7) % (configs.size() - 2);
    expect_same_as_oracle("random #" + std::to_string(i) + " (" + std::to_string(p.num_ops) +
                              " ops, config " + std::to_string(c) + ")",
                          models::random_dag(p), table, configs[c]);
  }
}

TEST(IosDp, SmallRandomDagsMatchOracleExactly) {
  // The unpruned DP: every down-set is expanded and every stage enumerated.
  const cost::TableCostModel table;
  for (int i = 0; i < 24; ++i) {
    models::RandomDagParams p;
    p.num_ops = 2 + i % 11;
    p.num_layers = std::min(1 + i % 4, p.num_ops);
    p.num_deps = i % 13;
    p.seed = 9000 + static_cast<uint64_t>(i);
    expect_same_as_oracle("small #" + std::to_string(i), models::random_dag(p), table,
                          exact_ios_config());
  }
}

}  // namespace
}  // namespace hios::sched
