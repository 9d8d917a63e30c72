// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): sets the workload up at least five times (setup_s
// is the median), runs its timed closed loop for --seconds, checks the outputs,
// and prints the end-to-end metrics. Traced (--trace 1): runs the loop
// untraced and then traced for half the time each (their difference is the
// tracing overhead), then the layer sweep, and prints the per-layer
// metrics; the spans are written as Chrome trace-event JSON next to the
// binary. The last line of stdout is always the result object; a line
// before it records the machine context. Exit status: 0 when every
// operation and check passed, 1 on a failure, 2 on a usage error, 3 on a
// build that is not Release.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "context.h"
#include "layers.h"
#include "serve_workloads.h"
#include "span.h"
#include "stats.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

// Set-up runs at least kMinSetups times and, when it is cheap, until
// kSetupBudgetS has passed (at most kMaxSetups); setup_s is the median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 40;
constexpr double kSetupBudgetS = 0.25;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: perfbench --workload <name> --seed <n> --seconds <1..600> "
               "--trace <0|1>\nworkloads:");
  for (const std::string& w : workload_names()) std::fprintf(to, " %s", w.c_str());
  std::fprintf(to, "\n");
}

bool parse_int(const char* text, long long lo, long long hi, long long& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  out = v;
  return true;
}

/// Parses argv into `o`. Returns false (after printing why) on any
/// malformed, missing or unknown flag.
bool parse_args(int argc, char** argv, Options& o, bool& help) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      help = true;
      return true;
    }
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    ++i;
    long long v = 0;
    if (flag == "--workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", value);
        return false;
      }
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_int(value, 0, 1LL << 40, v)) {
      o.seed = static_cast<uint64_t>(v);
      have_seed = true;
    } else if (flag == "--seconds" && parse_int(value, 1, 600, v)) {
      o.seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (flag == "--trace" && parse_int(value, 0, 1, v)) {
      o.trace = v == 1;
      have_trace = true;
    } else {
      std::fprintf(stderr, "perfbench: bad flag or value: %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    std::fprintf(stderr, "perfbench: --workload, --seed, --seconds and --trace are required\n");
    return false;
  }
  return true;
}

/// End-to-end metrics of one untraced run.
void end_to_end(const Options& o, hios::Json& metrics, Tally& tally) {
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  const double start = wall_s();
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || wall_s() - start < kSetupBudgetS); ++i) {
    w.reset();  // the previous instance is gone before the next set-up
    const double t0 = wall_s();
    w = make_workload(o);
    w->setup();
    setups.push_back(wall_s() - t0);
  }
  const LoopStats loop = w->run(o.seconds);
  tally.merge(w->loop_tally());
  w->check(tally);
  tally.check(percentile_supported(loop.op_ms.size(), 90.0),
              "fewer samples than p90 needs (" + std::to_string(loop.op_ms.size()) + ")");
  add_metric(metrics, "setup_s", median(setups), "s");
  add_metric(metrics, "ops_per_s", median(loop.round_ops_per_s), "1/s");
  add_metric(metrics, "op_ms.p50", percentile(loop.op_ms, 50.0), "ms");
  add_metric(metrics, "op_ms.p90", percentile(loop.op_ms, 90.0), "ms");
  add_metric(metrics, "plan_latency_ms", w->plan_latency_ms(), "ms");
  w.reset();
  add_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
}

/// Per-layer metrics of one traced run.
void per_layer(const Options& o, hios::Json& metrics, Tally& tally) {
  const auto w = make_workload(o);
  w->setup();
  const double half = std::max(1.0, o.seconds / 2.0);
  const LoopStats plain = w->run(half);
  set_recording(true);
  const LoopStats traced = w->run(half);
  tally.merge(w->loop_tally());
  w->check(tally);
  add_metric(metrics, "trace.overhead_frac",
             median(plain.round_ops_per_s) / median(traced.round_ops_per_s) - 1.0, "ratio");
  run_layer_sweep(o, metrics, tally);
  set_recording(false);
  const auto spans = recorded_spans();
  add_metric(metrics, "trace.spans", static_cast<double>(spans.size()), "count");
  // The span file goes next to the binary, inside the build directory.
  const std::filesystem::path path =
      std::filesystem::read_symlink("/proc/self/exe").parent_path() /
      ("trace-" + o.workload + ".json");
  if (write_chrome_trace(path.string(), spans)) {
    std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
  }
}

int run(int argc, char** argv) {
  Options o;
  bool help = false;
  if (!parse_args(argc, argv, o, help)) {
    usage(stderr);
    return 2;
  }
  if (help) {
    usage(stdout);
    return 0;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a '%s' build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const int nproc = online_cpus();
  // Two lanes exercise the pool; on a shared 4-vCPU machine they spread
  // about a third as much as four between runs.
  o.threads = std::min(nproc, 2);
  hios::util::set_global_threads(o.threads);

  hios::Json metrics = hios::Json::object();
  Tally tally;
  if (o.trace) {
    per_layer(o, metrics, tally);
  } else {
    end_to_end(o, metrics, tally);
  }

  const double cores = effective_cores(std::min(nproc, 4));
  if (o.trace) {
    add_metric(metrics, "util.threads", static_cast<double>(o.threads), "count");
    add_metric(metrics, "util.effective_cores", cores, "count");
  }
  hios::Json context = hios::Json::object();
  context["workload"] = o.workload;
  context["seed"] = static_cast<int64_t>(o.seed);
  context["seconds"] = o.seconds;
  context["trace"] = o.trace;
  context["nproc"] = nproc;
  context["pool_threads"] = hios::util::global_pool().num_threads();
  // Only the traced layer sweep runs the engine.
  context["engine_threads"] = o.trace ? kEngineThreads : 0;
  context["effective_cores"] = cores;
  context["build_type"] = PERFBENCH_BUILD_TYPE;
  context["compiler"] = PERFBENCH_COMPILER;
  std::printf("context %s\n", context.dump().c_str());
  for (const std::string& e : tally.errors()) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  }

  hios::Json result = hios::Json::object();
  result["correct"] = tally.failed() == 0;
  result["attempted"] = tally.attempted();
  result["failed"] = tally.failed();
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dag-hios", "zoo-plan", "serve-trace"};
  return names;
}

void add_metric(hios::Json& metrics, const std::string& name, double value, const char* unit) {
  hios::Json m = hios::Json::object();
  m["value"] = value;
  m["unit"] = unit;
  metrics[name] = std::move(m);
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "dag-hios") return make_dag_hios(o);
  if (o.workload == "zoo-plan") return make_zoo_plan(o);
  return make_serve_trace(o);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
