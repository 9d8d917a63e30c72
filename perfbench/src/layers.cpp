// The traced layer sweep.
//
// Every traced run, whatever its workload, runs the same sweep on inputs
// derived from the seed, so every per-layer metric is measured each time.
// Each layer is probed on the inputs of the workload whose end-to-end
// metric it moves:
//
//   graph, sched.inter/intra/eval/validate, sim, cost.cache_hit_ratio,
//   util.pool_speedup
//       four §V-A DAGs (512 ops, 4 GPUs, table model) as in dag-hios;
//       times are medians per call, counts are sums over the four.
//   graph.compile_ms, cost.profile_ms, sched.ios_ms, cost.stage_*
//       the five full-size CNNs on the dual-A40 platform as in zoo-plan;
//       times and counts are sums over the five models (the stage metrics
//       over their IOS, HIOS-LP and HIOS-MR plans).
//   serve.* (trace)
//       one serve-trace run at the reference rate plus the rate sweep that
//       fixes serve.capacity_rps.
//   runtime.*, serve.cache_*, serve.submit_us
//       the five CNNs at reduced sizes on a 2-vGPU x 2-lane engine server:
//       direct engine and reference runs, warm cache lookups, and a short
//       online run through start/submit/drain.
//
// Times come from spans around the public calls (self time: a child
// span's interval is not counted in its parent).
#include "layers.h"

#include <algorithm>
#include <cstring>
#include <future>

#include "core/hios.h"
#include "cost/stage_cache.h"
#include "counting_model.h"
#include "serve_workloads.h"
#include "span.h"
#include "stats.h"
#include "util/bitset.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace hios;

constexpr int kSweepDags = 4;
constexpr int kEngineRepeats = 4;
constexpr int kCacheLookups = 200;
constexpr int kOnlineRounds = 5;

/// Self times (ms) of the spans named `name` with ids from `from_id` on.
std::vector<double> self_ms(const std::string& name, int64_t from_id) {
  const std::vector<SpanRecord> spans = recorded_spans();
  std::vector<double> out;
  const std::vector<int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id >= from_id && name == spans[i].name) {
      out.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  return out;
}

double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

// --- DAG layers -----------------------------------------------------------------

void dag_layers(const Options& o, Json& out, Tally& tally) {
  const cost::TableCostModel table;
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  int64_t paths = 0, tried = 0, accepted = 0, lookups = 0, misses = 0;
  std::vector<double> path_loop_ms;
  std::vector<graph::Graph> dags;
  for (int i = 0; i < kSweepDags; ++i) {
    models::RandomDagParams p;
    p.num_ops = 512;
    p.num_layers = 22;
    p.num_deps = 1024;
    p.seed = o.seed * 1000 + 500 + static_cast<uint64_t>(i);
    dags.push_back(models::random_dag(p));
  }
  const int64_t from = next_span_id();
  for (const graph::Graph& g : dags) {
    const graph::CompiledGraph cg(g);
    // Alg. 1's path extraction looped to exhaustion.
    hios::DynBitset scheduled(g.num_nodes());
    const double t0 = wall_s();
    for (;;) {
      std::optional<graph::ValidPath> path;
      {
        const Span span("graph.path");
        path = graph::longest_valid_path(g, scheduled, cg.topo_order());
      }
      if (!path) break;
      ++paths;
      for (graph::NodeId v : path->nodes) scheduled.set(static_cast<std::size_t>(v));
    }
    path_loop_ms.push_back((wall_s() - t0) * 1e3);

    for (const char* inter : {"inter-lp", "inter-mr"}) {
      sched::ScheduleResult placed;
      {
        const Span span("sched.inter");
        placed = sched::make_scheduler(inter)->schedule(g, table, config);
      }
      // Counting on both sides of the stage cache gives its hit ratio.
      const CountingModel below(table, nullptr);
      const cost::StageTimeCache cache(below);
      const CountingModel above(cache, nullptr, /*track_distinct=*/false);
      sched::ParallelizeResult intra;
      {
        const Span span("sched.intra");
        intra = sched::parallelize(cg, placed.schedule, above,
                                   std::min(config.window, config.max_streams));
      }
      tried += intra.candidates_tried;
      accepted += intra.merges_accepted;
      lookups += above.calls();
      misses += below.calls();

      // HIOS-LP / HIOS-MR is exactly this inter pass plus this intra pass.
      const std::string full = std::string(inter) == "inter-lp" ? "hios-lp" : "hios-mr";
      const auto whole = sched::make_scheduler(full)->schedule(g, table, config);
      tally.check(whole.latency_ms == intra.latency_ms,
                  full + ": latency differs from " + inter + " + parallelize");

      std::optional<sched::Evaluation> eval;
      {
        const Span span("sched.eval");
        eval = sched::evaluate_schedule(g, intra.schedule, table);
      }
      tally.check(eval && eval->latency_ms == intra.latency_ms,
                  "evaluate_schedule does not reproduce the parallelize latency");
      bool valid = true;
      {
        const Span span("sched.validate");
        try {
          sched::check_schedule(g, intra.schedule);
        } catch (const std::exception&) {
          valid = false;
        }
      }
      tally.check(valid, std::string(inter) + " + parallelize: invalid schedule");
      std::optional<sim::Timeline> stages, ops_tl;
      {
        const Span span("sim.stages");
        stages = sim::simulate_stages(g, intra.schedule, table);
      }
      {
        const Span span("sim.ops");
        ops_tl = sim::simulate_ops(g, intra.schedule, table);
      }
      tally.check(stages && std::abs(stages->latency_ms - intra.latency_ms) <=
                                1e-9 * std::max(1.0, intra.latency_ms),
                  "simulate_stages disagrees with the parallelize latency");
      tally.check(ops_tl.has_value(), "simulate_ops failed");
    }
  }
  add_metric(out, "graph.path_ms", median(path_loop_ms), "ms");
  add_metric(out, "graph.paths", static_cast<double>(paths), "count");
  add_metric(out, "sched.inter_ms", median(self_ms("sched.inter", from)), "ms");
  add_metric(out, "sched.intra_ms", median(self_ms("sched.intra", from)), "ms");
  add_metric(out, "sched.merges_tried", static_cast<double>(tried), "count");
  add_metric(out, "sched.merges_accepted", static_cast<double>(accepted), "count");
  add_metric(out, "sched.merge_accept_ratio",
             tried > 0 ? static_cast<double>(accepted) / static_cast<double>(tried) : 0.0,
             "ratio");
  add_metric(out, "sched.eval_ms", median(self_ms("sched.eval", from)), "ms");
  add_metric(out, "sched.validate_ms", median(self_ms("sched.validate", from)), "ms");
  add_metric(out, "sim.stages_ms", median(self_ms("sim.stages", from)), "ms");
  add_metric(out, "sim.ops_ms", median(self_ms("sim.ops", from)), "ms");
  add_metric(out, "cost.cache_hit_ratio",
             lookups > 0 ? 1.0 - static_cast<double>(misses) / static_cast<double>(lookups) : 0.0,
             "ratio");

  // Thread-pool verdict: HIOS-LP wall at 1 thread over wall at the
  // workload's thread count, alternating, on the same DAGs.
  std::vector<double> serial_ms, pooled_ms;
  for (int rep = 0; rep < 2; ++rep) {
    for (const graph::Graph& g : dags) {
      for (int threads : {1, o.threads}) {
        const util::ScopedThreads scoped(threads);
        const double t0 = wall_s();
        sched::make_scheduler("hios-lp")->schedule(g, table, config);
        (threads == 1 ? serial_ms : pooled_ms).push_back((wall_s() - t0) * 1e3);
      }
    }
  }
  add_metric(out, "util.pool_speedup", median(serial_ms) / median(pooled_ms), "ratio");
}

// --- zoo layers -----------------------------------------------------------------

void zoo_layers(const Options& o, Json& out, Tally& tally) {
  const cost::Platform platform = cost::make_dual_a40_nvlink();
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  int64_t queries = 0;
  const int64_t from = next_span_id();
  for (const auto& [name, model] : full_zoo(o.seed)) {
    std::optional<cost::ProfiledModel> pm;
    {
      const Span span("cost.profile");
      pm.emplace(cost::profile_model(model, platform));
    }
    {
      const Span span("graph.compile");
      const graph::CompiledGraph cg(pm->graph);
    }
    for (const char* alg : {"ios", "hios-lp", "hios-mr"}) {
      const CountingModel counted(*pm->cost, "cost.stage");
      const Span span(std::string(alg) == "ios" ? "sched.ios" : "sched.hios");
      const auto r = sched::make_scheduler(alg)->schedule(pm->graph, counted, config);
      tally.check(sched::validate_schedule(pm->graph, r.schedule).empty(),
                  name + " " + alg + ": invalid schedule");
      queries += counted.distinct();
    }
  }
  add_metric(out, "graph.compile_ms", sum(self_ms("graph.compile", from)), "ms");
  add_metric(out, "cost.profile_ms", sum(self_ms("cost.profile", from)), "ms");
  add_metric(out, "sched.ios_ms", sum(self_ms("sched.ios", from)), "ms");
  add_metric(out, "cost.stage_ms", sum(self_ms("cost.stage", from)), "ms");
  add_metric(out, "cost.stage_queries", static_cast<double>(queries), "count");
}

// --- serve-trace layers ---------------------------------------------------------

void trace_layers(const Options& o, Json& out, Tally& tally) {
  const Zoo zoo = full_zoo(o.seed);
  double capacity = 0.0;
  for (double rate : kRateSweep) {
    const serve::Trace trace = make_trace(zoo, rate, kTraceRequests, o.seed * kTracesPerSeed);
    WarmServer ws(zoo, trace_server_options(trace.requests.back().arrival_ms));
    const double t0 = wall_s();
    serve::ServeReport report;
    {
      const Span span("serve.run_trace");
      report = ws.server.run_trace(trace);
    }
    const double run_ms = (wall_s() - t0) * 1e3;
    const auto violations =
        conservation_violations(report.metrics, ws.server.metrics().snapshot().cache_lookups);
    tally.check(violations.empty(),
                "serve-trace sweep: " + (violations.empty() ? "" : violations.front()));
    const TraceOutcome outcome = summarize_trace(trace, report, tally);
    const double p99 = percentile(outcome.latencies_ms, 99.0);
    if (p99 <= kSloP99Ms && outcome.goodput >= 0.99) capacity = std::max(capacity, rate);
    if (rate != kReferenceRate) continue;

    const Json& m = report.metrics;
    const Json& c = m.at("counters");
    add_metric(out, "serve.p50_ms", percentile(outcome.latencies_ms, 50.0), "ms");
    add_metric(out, "serve.p99_ms", p99, "ms");
    add_metric(out, "serve.goodput_frac", outcome.goodput, "ratio");
    add_metric(out, "serve.trace_us_per_req",
               run_ms * 1e3 / static_cast<double>(trace.requests.size()), "us");
    add_metric(out, "serve.queue_wait_ms.p99", m.at("queue_wait_ms").at("p99").as_number(), "ms");
    add_metric(out, "serve.queue_high_watermark", m.at("queue").at("high_watermark").as_number(),
               "count");
    for (const char* k : {"retried", "hedged", "hedge_won", "breaker_rejected", "dropped",
                          "rejected"}) {
      add_metric(out, std::string("serve.") + k, c.at(k).as_number(), "count");
    }
    add_metric(out, "serve.health_transitions", m.at("health").at("transitions").as_number(),
               "count");
    add_metric(out, "serve.probes_sent", m.at("health").at("probes_sent").as_number(), "count");
    add_metric(out, "serve.pool_hits", m.at("plan_pool").at("hits").as_number(), "count");
    add_metric(out, "serve.pool_misses", m.at("plan_pool").at("misses").as_number(), "count");
    add_metric(out, "serve.prewarm_builds", static_cast<double>(ws.prewarm_builds), "count");
    add_metric(out, "serve.prewarm_ms", ws.prewarm_ms, "ms");
  }
  add_metric(out, "serve.capacity_rps", capacity, "1/s");
}

// --- engine layers --------------------------------------------------------------

void engine_layers(const Options& o, Json& out, Tally& tally) {
  const Zoo zoo = reduced_zoo(o.seed);
  const serve::ServerOptions options = engine_server_options();
  serve::Server server(options);
  sched::SchedulerConfig config = options.config;
  config.num_gpus = options.platform.num_gpus;
  std::vector<std::map<int, ops::Tensor>> reference;
  const int64_t from = next_span_id();
  for (const auto& [name, model] : zoo) {
    server.register_model(name, model);
    const ops::Model& m = server.model(name);
    const auto plan = server.cache().get(m, options.algorithm, config, serve::TopologyVersion{});
    for (int rep = 0; rep < kEngineRepeats; ++rep) {
      std::map<int, ops::Tensor> ref;
      {
        const Span span("runtime.ref");
        ref = runtime::execute_reference(m);
      }
      runtime::ExecutionResult r;
      {
        const Span span("runtime.exec");
        r = runtime::execute_schedule(m, plan->profiled.graph, plan->schedule,
                                      *plan->profiled.cost);
      }
      tally.check(matches_reference(r.outputs, ref),
                  name + ": engine outputs differ from reference");
      if (rep == 0) reference.push_back(std::move(ref));
    }
    for (int i = 0; i < kCacheLookups; ++i) {
      const Span span("serve.cache_get");
      server.cache().get(m, options.algorithm, config, serve::TopologyVersion{});
    }
  }
  const std::vector<double> exec_ms = self_ms("runtime.exec", from);
  const std::vector<double> ref_ms = self_ms("runtime.ref", from);
  add_metric(out, "runtime.exec_ms", median(exec_ms), "ms");
  add_metric(out, "runtime.ref_ms", median(ref_ms), "ms");
  add_metric(out, "runtime.vgpu_speedup", sum(ref_ms) / sum(exec_ms), "ratio");
  add_metric(out, "serve.cache_get_us", median(self_ms("serve.cache_get", from)) * 1e3, "us");

  // A short online run: rounds of every model, two in flight.
  server.start();
  const double c0 = cpu_s();
  int64_t id = 0, requests = 0;
  for (int round = 0; round < kOnlineRounds; ++round) {
    for (std::size_t i = 0; i < zoo.size(); i += 2) {
      std::vector<std::pair<std::size_t, std::future<serve::Response>>> batch;
      for (std::size_t j = i; j < std::min(zoo.size(), i + 2); ++j) {
        serve::Request req;
        req.id = id++;
        req.model = zoo[j].first;
        const Span span("serve.submit");
        batch.emplace_back(j, server.submit(std::move(req)));
      }
      for (auto& [j, f] : batch) {
        const serve::Response r = f.get();
        ++requests;
        tally.check(r.verdict == serve::Verdict::kCompleted &&
                        matches_reference(r.outputs, reference[j]),
                    zoo[j].first + ": online request failed or differs from reference");
      }
    }
  }
  add_metric(out, "runtime.cpu_ms_per_req",
             (cpu_s() - c0) * 1e3 / static_cast<double>(requests), "ms");
  server.drain();
  const Json m = server.metrics().to_json();
  const auto violations =
      conservation_violations(m, server.metrics().snapshot().cache_lookups);
  tally.check(violations.empty(),
              "engine online run: " + (violations.empty() ? "" : violations.front()));
  add_metric(out, "serve.submit_us", median(self_ms("serve.submit", from)) * 1e3, "us");
  add_metric(out, "serve.cache_hits", m.at("schedule_cache").at("hits").as_number(), "count");
  add_metric(out, "serve.cache_misses", m.at("schedule_cache").at("misses").as_number(), "count");
  add_metric(out, "serve.cache_coalesced", m.at("schedule_cache").at("coalesced").as_number(),
             "count");
}

}  // namespace

void run_layer_sweep(const Options& o, Json& metrics, Tally& tally) {
  dag_layers(o, metrics, tally);
  zoo_layers(o, metrics, tally);
  trace_layers(o, metrics, tally);
  engine_layers(o, metrics, tally);
}

}  // namespace perfbench
