// Serving-layer benchmark: stream-slot throughput scaling + schedule cache
// + degraded-mode recovery (DESIGN.md §6f).
//
// Three acceptance gates (DESIGN.md §6e/§6f), enforced with --assert:
//   1. Throughput: at 4 GPUs x 4 stream slots a saturated request stream
//      must sustain >= 4x the single-request throughput of the same
//      schedule (with serve::kRequestDemand = 0.2, four in-flight
//      requests fit inside the machine, so the virtual-time model must
//      deliver exactly 4x; the gate allows 3.99x for float slack). p50/p95/p99 latency is
//      reported at every slot count.
//   2. Schedule cache: a warm cache lookup must cost <= 1% of the cold
//      profile + HIOS-LP scheduling pass it replaces.
//   3. Degraded mode: with GPU 3 down mid-trace, degraded-phase throughput
//      must track the modelled survivor bound (full-plan latency /
//      survivor-plan latency — the 3-of-4-GPUs capacity model) within
//      contention slack, the recovered phase must regain >= 0.9x steady
//      throughput, and no request may pay a cold reschedule (plan-pool
//      misses == 0).
// Flags: --smoke (fewer requests), --assert (exit 1 when a gate fails),
//        --json P (write the phase/throughput report as JSON to P).
#include <chrono>
#include <fstream>

#include "bench_common.h"
#include "serve/server.h"
#include "util/thread_pool.h"

using namespace hios;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool throughput_scaling(int num_requests, bool enforce) {
  bench::print_header("Serving throughput",
                      "saturated stream, SqueezeNet, 4 GPUs, slots_per_gpu sweep");
  TextTable table;
  table.set_header({"slots", "completed", "makespan_ms", "throughput_rps",
                    "speedup_vs_single", "p50_ms", "p95_ms", "p99_ms"});
  bool ok = true;
  double four_slot_speedup = 0.0;
  for (int slots : {1, 2, 4}) {
    serve::ServerOptions opt;
    opt.platform = cost::make_a40_server(4);
    opt.slots_per_gpu = slots;
    opt.queue_capacity = static_cast<std::size_t>(num_requests);
    opt.use_engine = false;  // virtual-time throughput accounting
    serve::Server server(opt);
    server.register_model("squeezenet", models::make_squeezenet());

    serve::TraceParams params;
    params.models = {"squeezenet"};
    params.num_requests = num_requests;  // all arrive at t = 0: saturation
    const serve::ServeReport report = server.run_trace(serve::Trace::random(params, 1));

    const double base_ms = report.responses.front().base_ms;
    const double single_rps = 1000.0 / base_ms;  // one request at a time
    const double speedup = report.throughput_rps / single_rps;
    if (slots == 4) four_slot_speedup = speedup;
    const serve::Metrics::Snapshot s = server.metrics().snapshot();
    table.add_row({std::to_string(slots), std::to_string(s.completed),
                   TextTable::num(report.makespan_ms, 2),
                   TextTable::num(report.throughput_rps, 1), TextTable::num(speedup, 3),
                   TextTable::num(s.latency.p50, 2), TextTable::num(s.latency.p95, 2),
                   TextTable::num(s.latency.p99, 2)});
  }
  bench::print_table(table, "serve_throughput");
  bench::print_expectation(
      "throughput scales ~linearly with stream slots while k * demand <= 1 "
      "(4 slots x 0.2 demand saturates exactly); queueing pushes p99 far above "
      "p50 at low slot counts.");

  if (four_slot_speedup < 3.99) {
    std::fprintf(stderr, "FAIL: 4-slot speedup %.3f < 3.99x single-request throughput\n",
                 four_slot_speedup);
    ok = false;
  } else {
    std::printf("throughput gate passed: 4 slots sustain %.3fx single-request throughput\n\n",
                four_slot_speedup);
  }
  return ok || !enforce;
}

bool cache_cost(bool enforce) {
  bench::print_header("Schedule cache", "cold profile+schedule pass vs warm lookup");
  serve::ScheduleCache cache(cost::make_a40_server(4));
  // NASNet-A (358 ops): the expensive end of the model zoo, where the cold
  // pass the cache short-circuits actually hurts. A warm lookup is one
  // structural fingerprint + hash probe regardless of the model.
  const ops::Model model = models::make_nasnet();
  sched::SchedulerConfig config;
  config.num_gpus = 4;

  auto cold = cache.get(model, "hios-lp", config);
  const double cold_ms = cold->build_ms;

  constexpr int kWarmLookups = 1000;
  const double t0 = now_ms();
  for (int i = 0; i < kWarmLookups; ++i) cache.get(model, "hios-lp", config);
  const double warm_ms = (now_ms() - t0) / kWarmLookups;

  TextTable table;
  table.set_header({"pass", "cost_ms", "pct_of_cold"});
  table.add_row({"cold (profile + hios-lp, nasnet)", TextTable::num(cold_ms, 3), "100.0"});
  table.add_row({"warm lookup", TextTable::num(warm_ms, 6),
                 TextTable::num(100.0 * warm_ms / cold_ms, 4)});
  bench::print_table(table, "serve_cache");

  if (warm_ms > 0.01 * cold_ms) {
    std::fprintf(stderr, "FAIL: warm lookup %.6f ms exceeds 1%% of cold pass %.3f ms\n",
                 warm_ms, cold_ms);
    return !enforce;
  }
  std::printf("cache gate passed: warm lookup %.6f ms = %.4f%% of cold %.3f ms\n\n",
              warm_ms, 100.0 * warm_ms / cold_ms, cold_ms);
  return true;
}

// Cold survivor prewarm: the current mask plus every single-GPU-down
// subset (5 plans on a 4-GPU platform), built concurrently, one fork-join
// lane per hardware thread. Reports wall clock cold and re-warm (everything
// cached) so the cost of arming failover is visible.
bool prewarm_cost(bool enforce, Json& doc) {
  bench::print_header("Survivor prewarm",
                      "PlanPool::prewarm: current + single-GPU-down plans, NASNet, 4 GPUs");
  serve::ScheduleCache cache(cost::make_a40_server(4));
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  serve::PlanPool pool(cache, "hios-lp", config);
  const ops::Model model = models::make_nasnet();

  const double t0 = now_ms();
  const std::size_t cold_builds = pool.prewarm(model, serve::kFullMask);
  const double cold_ms = now_ms() - t0;
  const double t1 = now_ms();
  const std::size_t rewarm_builds = pool.prewarm(model, serve::kFullMask);
  const double warm_ms = now_ms() - t1;

  TextTable table;
  table.set_header({"pass", "cold_builds", "wall_ms"});
  table.add_row({"cold", std::to_string(cold_builds), TextTable::num(cold_ms, 2)});
  table.add_row({"re-warm", std::to_string(rewarm_builds), TextTable::num(warm_ms, 4)});
  bench::print_table(table, "serve_prewarm");

  Json j = Json::object();
  j["threads"] = util::global_pool().num_threads();
  j["cold_builds"] = static_cast<int64_t>(cold_builds);
  j["cold_wall_ms"] = cold_ms;
  j["rewarm_builds"] = static_cast<int64_t>(rewarm_builds);
  j["rewarm_wall_ms"] = warm_ms;
  doc["prewarm"] = std::move(j);

  if (cold_builds != 5 || rewarm_builds != 0) {
    std::fprintf(stderr,
                 "FAIL: prewarm built %zu cold / %zu re-warm plans (expected 5 / 0)\n",
                 cold_builds, rewarm_builds);
    return !enforce;
  }
  std::printf("prewarm: 5 survivor plans in %.2f ms cold, %.4f ms re-warm\n\n",
              cold_ms, warm_ms);
  return true;
}

bool degraded_recovery(int num_requests, bool enforce, Json& doc) {
  bench::print_header("Degraded-mode serving",
                      "SqueezeNet, 4 GPUs x 4 slots; GPU 3 dies at 30% and "
                      "recovers at 60% of the clean makespan");
  const ops::Model model = models::make_squeezenet();
  serve::TraceParams params;
  params.models = {"squeezenet"};
  params.num_requests = num_requests;  // all at t = 0: saturation
  const serve::Trace trace = serve::Trace::random(params, 1);

  serve::ServerOptions opt;
  opt.platform = cost::make_a40_server(4);
  opt.slots_per_gpu = 4;
  opt.queue_capacity = static_cast<std::size_t>(num_requests);
  opt.use_engine = false;

  // Clean run calibrates the outage window and the retry/probe backoffs.
  double clean_makespan = 0.0;
  {
    serve::Server server(opt);
    server.register_model("squeezenet", model);
    clean_makespan = server.run_trace(trace).makespan_ms;
  }
  const double down_at = 0.3 * clean_makespan;
  const double up_at = 0.6 * clean_makespan;
  opt.outages.push_back(serve::GpuOutage{3, down_at, up_at});
  opt.retry_backoff_ms = 0.005 * clean_makespan;
  opt.health.probe_backoff_ms = 0.01 * clean_makespan;
  opt.health.probe_max_backoff_ms = 0.04 * clean_makespan;

  serve::Server server(opt);
  server.register_model("squeezenet", model);
  const serve::ServeReport report = server.run_trace(trace);
  const serve::Metrics::Snapshot s = server.metrics().snapshot();

  // Bucket completions into the three phases by finish time ((from, to]
  // windows; the recovered phase runs to the degraded makespan).
  struct Phase {
    const char* name;
    double from, to;
    int completed = 0;
    std::vector<double> service_ms;  ///< finish - start per request
  };
  Phase phases[3] = {{"steady", 0.0, down_at, 0, {}},
                     {"degraded", down_at, up_at, 0, {}},
                     {"recovered", up_at, report.makespan_ms, 0, {}}};
  for (const serve::Response& r : report.responses) {
    if (r.verdict != serve::Verdict::kCompleted) continue;
    for (Phase& p : phases) {
      if (r.finish_ms > p.from && r.finish_ms <= p.to) {
        ++p.completed;
        p.service_ms.push_back(r.finish_ms - r.start_ms);
        break;
      }
    }
  }

  // Modelled bound: throughput scales with plan latency, so the degraded /
  // steady ratio should track full-plan / survivor-plan latency (lanes and
  // the contention formula are unchanged by the outage).
  const auto survivor = server.plan_pool().plan_for(model, 0b0111u);
  sched::SchedulerConfig cfg = opt.config;
  cfg.num_gpus = opt.platform.num_gpus;
  const auto full = server.cache().get(model, opt.algorithm, cfg);
  const double expected_ratio = full->latency_ms / survivor->latency_ms;

  TextTable table;
  table.set_header({"phase", "window_ms", "completed", "throughput_rps", "p99_service_ms"});
  double rps[3] = {0.0, 0.0, 0.0};
  Json jphases = Json::object();
  for (int i = 0; i < 3; ++i) {
    Phase& p = phases[i];
    const double span = p.to - p.from;
    rps[i] = span > 0.0 ? 1000.0 * p.completed / span : 0.0;
    const double p99 = p.service_ms.empty() ? 0.0 : percentile(p.service_ms, 0.99);
    table.add_row({p.name, TextTable::num(span, 2), std::to_string(p.completed),
                   TextTable::num(rps[i], 1), TextTable::num(p99, 3)});
    Json jp = Json::object();
    jp["completed"] = p.completed;
    jp["window_ms"] = span;
    jp["throughput_rps"] = rps[i];
    jp["p99_service_ms"] = p99;
    jphases[p.name] = std::move(jp);
  }
  bench::print_table(table, "serve_degraded");

  const double measured_ratio = rps[0] > 0.0 ? rps[1] / rps[0] : 0.0;
  const double recovered_ratio = rps[0] > 0.0 ? rps[2] / rps[0] : 0.0;
  std::printf("full plan %.4f ms, survivor plan %.4f ms -> modelled degraded ratio %.3f; "
              "measured %.3f; recovered/steady %.3f\n",
              full->latency_ms, survivor->latency_ms, expected_ratio, measured_ratio,
              recovered_ratio);
  std::printf("resilience: retried=%lld breaker_rejected=%lld pool hits/misses=%lld/%lld "
              "health transitions=%lld\n\n",
              static_cast<long long>(s.retried), static_cast<long long>(s.breaker_rejected),
              static_cast<long long>(s.pool_hits), static_cast<long long>(s.pool_misses),
              static_cast<long long>(s.health_transitions));
  bench::print_expectation(
      "degraded throughput tracks the survivor capacity model (3 of 4 GPUs -> the "
      "full/survivor plan-latency ratio), every victim retries onto a prewarmed "
      "survivor plan (zero pool misses), and the recovered phase drains the backlog "
      "at steady-state throughput.");

  Json j = Json::object();
  j["clean_makespan_ms"] = clean_makespan;
  j["degraded_makespan_ms"] = report.makespan_ms;
  j["phases"] = std::move(jphases);
  j["expected_degraded_ratio"] = expected_ratio;
  j["measured_degraded_ratio"] = measured_ratio;
  j["recovered_ratio"] = recovered_ratio;
  j["retried"] = s.retried;
  j["pool_hits"] = s.pool_hits;
  j["pool_misses"] = s.pool_misses;
  j["health_transitions"] = s.health_transitions;
  doc["degraded"] = std::move(j);

  bool ok = true;
  if (std::abs(measured_ratio - expected_ratio) > 0.2 * expected_ratio) {
    std::fprintf(stderr,
                 "FAIL: degraded throughput ratio %.3f outside modelled bound %.3f +- 20%%\n",
                 measured_ratio, expected_ratio);
    ok = false;
  }
  if (recovered_ratio < 0.9) {
    std::fprintf(stderr, "FAIL: recovered throughput %.3fx steady, need >= 0.9x\n",
                 recovered_ratio);
    ok = false;
  }
  if (s.pool_misses != 0) {
    std::fprintf(stderr, "FAIL: %lld cold plan-pool misses; prewarm must cover failover\n",
                 static_cast<long long>(s.pool_misses));
    ok = false;
  }
  if (ok) {
    std::printf("degraded gate passed: ratio %.3f (modelled %.3f), recovered %.3fx, "
                "0 pool misses\n\n",
                measured_ratio, expected_ratio, recovered_ratio);
  }
  return ok || !enforce;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Serving layer: stream-slot throughput scaling, schedule-cache cost, "
                 "and degraded-mode recovery");
  args.add_flag("smoke", "false", "fewer requests (CI regime)")
      .add_flag("assert", "false", "exit 1 when an acceptance gate fails")
      .add_flag("json", "", "write the phase/throughput report as JSON to this path");
  bool smoke = false, enforce = false;
  std::string json_path;
  if (!parse_flags_or_exit(args, argc, argv, [&] {
        smoke = args.get_bool("smoke");
        enforce = args.get_bool("assert");
        json_path = args.get("json");
        bench::check_output_path("json", json_path);
      }))
    return 0;

  Json doc = Json::object();
  bool ok = throughput_scaling(smoke ? 64 : 256, enforce);
  ok = cache_cost(enforce) && ok;
  ok = prewarm_cost(enforce, doc) && ok;
  ok = degraded_recovery(smoke ? 96 : 256, enforce, doc) && ok;

  if (!json_path.empty()) {
    std::ofstream f(json_path);
    HIOS_CHECK(f.good(), "cannot open --json path " << json_path);
    f << doc.dump(true) << "\n";
    std::printf("wrote JSON report %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
