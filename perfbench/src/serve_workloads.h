// Serving set-up shared by the serve workloads and the traced layer sweep.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "ops/model.h"
#include "serve/server.h"

namespace perfbench {

// serve-trace constants. These fix the workload; BENCHMARK.json records them.
inline constexpr int kTraceGpus = 4;
inline constexpr int kOutageGpu = 1;
inline constexpr double kReferenceRate = 900.0;  ///< req/s of the timed traces
inline constexpr int kTracesPerSeed = 8;        ///< timed traces, one seed each
inline constexpr double kRateSweep[] = {250.0, 500.0, 750.0, 900.0, 1000.0, 1250.0};
inline constexpr int kTraceRequests = 4000;     ///< per trace, at every rate
inline constexpr double kDeadlineSlackMs = 25.0;
inline constexpr double kSloP99Ms = 15.0;        ///< capacity: p99 limit

inline constexpr int kEngineGpus = 2;
inline constexpr int kEngineLanes = 2;
inline constexpr int kEngineThreads = kEngineGpus * kEngineLanes;  ///< one per vGPU per lane

using Zoo = std::vector<std::pair<std::string, hios::ops::Model>>;

/// The five CNNs at the paper's input sizes (RandWire wired from `seed`).
Zoo full_zoo(uint64_t seed);
/// The same five at reduced sizes that run on the CPU engine.
Zoo reduced_zoo(uint64_t seed);

/// serve-trace server: 4 GPUs x 4 slots, no engine, one GPU outage over
/// [0.4, 0.5) of the trace, hedging and the breaker on.
hios::serve::ServerOptions trace_server_options(double trace_ms);
/// Engine server of the layer sweep: 2 vGPUs x 2 lanes executing real tensors.
hios::serve::ServerOptions engine_server_options();

/// Poisson trace over `zoo` at `rate_per_s` with kDeadlineSlackMs deadlines.
hios::serve::Trace make_trace(const Zoo& zoo, double rate_per_s, int requests, uint64_t seed);

/// A fresh Server with `zoo` registered and every plan a trace can ask for
/// already built (full topology, and the survivor sets of each outage).
struct WarmServer {
  WarmServer(const Zoo& zoo, const hios::serve::ServerOptions& options);
  hios::serve::Server server;
  int64_t prewarm_builds = 0;
  double prewarm_ms = 0.0;
};

/// What one trace run delivered to its users.
struct TraceOutcome {
  std::vector<double> latencies_ms;  ///< completed requests, virtual ms
  double goodput = 0.0;              ///< completed in time / submitted
};

/// Summarises `report` for `trace`. Each response counts as one operation
/// in `tally`, failed when it is inconsistent with its request (wrong id,
/// latency not finish - arrival, completed after its deadline).
TraceOutcome summarize_trace(const hios::serve::Trace& trace,
                             const hios::serve::ServeReport& report, Tally& tally);

/// True when `outputs` is non-empty and every tensor in it is bit-identical
/// to the same op's tensor in `reference` (a runtime::execute_reference
/// result, which holds every op's output).
bool matches_reference(const std::map<int, hios::ops::Tensor>& outputs,
                       const std::map<int, hios::ops::Tensor>& reference);

}  // namespace perfbench
