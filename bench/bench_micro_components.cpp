// Micro-benchmarks (google-benchmark) for the scheduler building blocks:
// these are the inner-loop costs that determine Fig. 14's algorithm-runtime
// component — CompiledGraph construction, HIOS-LP's path-on-GPU trials on
// ListScheduleState, the whole inter-GPU placements (Alg. 1 and Alg. 3),
// Alg. 2's merge candidates on ScheduleState and its whole pass, and the IOS
// DP on the zoo models.
// `bench_micro_smoke` (ctest) runs every case once briefly.
#include <benchmark/benchmark.h>

#include "core/hios.h"
#include "cost/stage_cache.h"
#include "graph/compiled_graph.h"
#include "graph/longest_path.h"
#include "sched/core/list_state.h"
#include "sched/core/schedule_state.h"
#include "sched/placement.h"

using namespace hios;

namespace {

graph::Graph test_graph(int ops) {
  models::RandomDagParams p;
  p.num_ops = ops;
  p.num_layers = std::max(2, ops / 14);
  p.num_deps = 2 * ops;
  p.seed = 42;
  return models::random_dag(p);
}

void BM_PriorityIndicators(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(graph::priority_indicators(g));
}
BENCHMARK(BM_PriorityIndicators)->Arg(100)->Arg(400);

void BM_CompiledGraph(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(graph::CompiledGraph(g));
}
BENCHMARK(BM_CompiledGraph)->Arg(100)->Arg(400);

void BM_LongestValidPath(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  DynBitset half(g.num_nodes());
  for (std::size_t v = 0; v < g.num_nodes() / 2; ++v) half.set(v);
  for (auto _ : state) benchmark::DoNotOptimize(graph::longest_valid_path(g, half));
}
BENCHMARK(BM_LongestValidPath)->Arg(100)->Arg(400);

// One HIOS-LP path trial: map the longest valid path of the unmapped half
// onto a GPU, then re-time the list schedule from the earliest changed rank.
void BM_ListScheduleStatePathTrial(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  const graph::CompiledGraph cg(g);
  const cost::TableCostModel table;
  const cost::StageTimeCache cost(table);
  constexpr int kGpus = 4;
  sched::ListScheduleState trial(cg, kGpus, cost);
  DynBitset mapped(g.num_nodes());
  for (std::size_t v = 0; v < g.num_nodes() / 2; ++v) {
    trial.set_gpu(static_cast<graph::NodeId>(v), static_cast<int>(v % kGpus));
    mapped.set(v);
  }
  const auto path = graph::longest_valid_path(g, mapped, cg.topo_order());
  int gpu = 0;
  for (auto _ : state) {
    for (graph::NodeId v : path->nodes) trial.set_gpu(v, gpu);
    benchmark::DoNotOptimize(trial.latency());
    gpu = (gpu + 1) % kGpus;
  }
}
BENCHMARK(BM_ListScheduleStatePathTrial)->Arg(100)->Arg(400);

// The Fig. 14 case (512 ops, 22 layers, 1024 deps, 4 GPUs, table model).
graph::Graph fig14_graph() {
  models::RandomDagParams p;
  p.num_ops = 512;
  p.num_layers = 22;
  p.num_deps = 1024;
  p.seed = 7;
  return models::random_dag(p);
}

// Alg. 1's whole placement on the Fig. 14 case. Counters: paths extracted
// (ValidPathFinder::next calls that found one) and trial recomputes (one
// suffix re-timing per path and GPU).
void BM_PlaceLongestPath(benchmark::State& state) {
  const graph::Graph g = fig14_graph();
  const graph::CompiledGraph cg(g);
  const cost::TableCostModel table;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  for (auto _ : state) benchmark::DoNotOptimize(sched::place_longest_path(cg, table, config));
  graph::ValidPathFinder finder(g, cg.topo_order());
  int paths = 0;
  while (finder.next()) ++paths;
  state.counters["paths"] = paths;
  state.counters["trial_recomputes"] = paths * config.num_gpus;
}
BENCHMARK(BM_PlaceLongestPath)->Unit(benchmark::kMillisecond);

// Alg. 3's whole placement on the Fig. 14 case.
void BM_PlaceMappingRecording(benchmark::State& state) {
  const graph::Graph g = fig14_graph();
  const graph::CompiledGraph cg(g);
  const cost::TableCostModel table;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::place_mapping_recording(cg, table, config));
}
BENCHMARK(BM_PlaceMappingRecording)->Unit(benchmark::kMillisecond);

// One Alg. 2 merge candidate: apply -> evaluate -> undo on the first pair of
// independent adjacent stages of an inter-LP schedule.
void BM_ScheduleStateMergeCandidate(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  const graph::CompiledGraph cg(g);
  const cost::TableCostModel table;
  const cost::StageTimeCache cost(table);
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto placed = sched::make_scheduler("inter-lp")->schedule(g, table, config);
  sched::ScheduleState merge(cg, cost);
  merge.load(placed.schedule);
  int gpu = -1, pos = -1;
  for (int i = 0; i < merge.num_gpus() && gpu < 0; ++i) {
    for (int p = 0; p + 1 < merge.stage_count(i); ++p) {
      if (merge.stages_independent(merge.stage_at(i, p), merge.stage_at(i, p + 1))) {
        gpu = i;
        pos = p;
        break;
      }
    }
  }
  if (gpu < 0) {
    state.SkipWithError("no independent adjacent stages");
    return;
  }
  for (auto _ : state) {
    merge.apply_merge(gpu, pos, 1);
    benchmark::DoNotOptimize(merge.evaluate_latency());
    merge.undo_merge();
  }
}
BENCHMARK(BM_ScheduleStateMergeCandidate)->Arg(100)->Arg(400);

// The whole Alg. 2 pass on the Fig. 14 case (512 ops, 4 GPUs) from its
// HIOS-LP placement. Counters: windows considered and windows scored (the
// rest lie off the critical path and are skipped, DESIGN.md §6d).
void BM_Parallelize(benchmark::State& state) {
  const graph::Graph g = fig14_graph();
  const graph::CompiledGraph cg(g);
  const cost::TableCostModel table;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto placed = sched::make_scheduler("inter-lp")->schedule(g, table, config);
  sched::ParallelizeResult r;
  for (auto _ : state) {
    const cost::StageTimeCache cost(table);
    r = sched::parallelize(cg, placed.schedule, cost, config.window);
    benchmark::DoNotOptimize(r.latency_ms);
  }
  state.counters["candidates_tried"] = r.candidates_tried;
  state.counters["candidates_evaluated"] = r.candidates_evaluated;
}
BENCHMARK(BM_Parallelize)->Unit(benchmark::kMillisecond);

void BM_StageTimeEval(benchmark::State& state) {
  const graph::Graph g = test_graph(64);
  const cost::TableCostModel cost;
  std::vector<graph::NodeId> stage;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(state.range(0)); ++v)
    stage.push_back(v);
  for (auto _ : state)
    benchmark::DoNotOptimize(cost.stage_time(g, std::span<const graph::NodeId>(stage)));
}
BENCHMARK(BM_StageTimeEval)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EvaluateSchedule(benchmark::State& state) {
  const graph::Graph g = test_graph(static_cast<int>(state.range(0)));
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto r = sched::make_scheduler("inter-lp")->schedule(g, cost, config);
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::evaluate_schedule(g, r.schedule, cost));
}
BENCHMARK(BM_EvaluateSchedule)->Arg(100)->Arg(400);

void BM_Scheduler(benchmark::State& state, const char* name) {
  const graph::Graph g = test_graph(100);
  const cost::TableCostModel cost;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  const auto scheduler = sched::make_scheduler(name);
  for (auto _ : state) benchmark::DoNotOptimize(scheduler->schedule(g, cost, config));
}
BENCHMARK_CAPTURE(BM_Scheduler, sequential, "sequential");
BENCHMARK_CAPTURE(BM_Scheduler, hios_lp, "hios-lp");
BENCHMARK_CAPTURE(BM_Scheduler, hios_mr, "hios-mr");
BENCHMARK_CAPTURE(BM_Scheduler, ios, "ios")->Iterations(3);

// The IOS calls that dominate perfbench zoo-plan: the whole "ios" schedule()
// on NASNet-A-331 and on RandWire (the paper's wiring), profiled on dual A40.
void BM_IosZoo(benchmark::State& state, bool nasnet) {
  const ops::Model model = nasnet ? models::make_nasnet() : models::make_randwire();
  const cost::ProfiledModel pm = cost::profile_model(model, cost::make_dual_a40_nvlink());
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto scheduler = sched::make_scheduler("ios");
  for (auto _ : state) benchmark::DoNotOptimize(scheduler->schedule(pm.graph, *pm.cost, config));
}
BENCHMARK_CAPTURE(BM_IosZoo, nasnet_331, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_IosZoo, randwire_1, false)->Unit(benchmark::kMillisecond);

void BM_ProfileInception(benchmark::State& state) {
  const ops::Model m = models::make_inception_v3();
  for (auto _ : state)
    benchmark::DoNotOptimize(cost::profile_model(m, cost::make_dual_a40_nvlink()));
}
BENCHMARK(BM_ProfileInception);

}  // namespace

BENCHMARK_MAIN();
