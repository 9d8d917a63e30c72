// Workload interface and the measurement helpers every workload shares.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "util/json.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  int threads = 1;  ///< scheduler pool lanes used by the workload
};

/// What one timed loop measured.
struct LoopStats {
  /// Throughput of each round of the loop (a cycle of jobs, a trace) in
  /// operations per second. The median over
  /// rounds is the workload's throughput: a burst of load from another
  /// process on the machine spoils a few rounds, not the figure.
  std::vector<double> round_ops_per_s;
  std::vector<double> op_ms;  ///< per-operation latency the user waits for
};

/// One benchmark workload. A fresh object is built and set up several times
/// to measure set-up time; the last one runs the timed loop.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and warms what users would not pay for per call.
  virtual void setup() = 0;
  /// Closed timed loop of the workload's operation for about `seconds`.
  /// With span recording on, the layer calls are wrapped in spans.
  virtual LoopStats run(double seconds) = 0;
  /// Correctness checks on what run() produced (not timed).
  virtual void check(Tally& tally) = 0;
  /// Geometric mean of the modelled single-inference latency (ms) of the
  /// plans the workload produced or served.
  virtual double plan_latency_ms() const = 0;
  /// Operations that failed during run() (a failure is never timed away).
  const Tally& loop_tally() const { return loop_tally_; }

 protected:
  Tally loop_tally_;
};

/// Sets metrics[name] = {"value": value, "unit": unit}.
void add_metric(hios::Json& metrics, const std::string& name, double value, const char* unit);

std::unique_ptr<Workload> make_workload(const Options& options);
const std::vector<std::string>& workload_names();

std::unique_ptr<Workload> make_dag_hios(const Options& options);
std::unique_ptr<Workload> make_zoo_plan(const Options& options);
std::unique_ptr<Workload> make_serve_trace(const Options& options);

/// Seconds on the monotonic clock.
double wall_s();
/// Process CPU seconds (user + system, all threads).
double cpu_s();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

}  // namespace perfbench
