// serve::Server — multi-tenant request serving over the virtual-GPU engine.
//
// The paper (and everything below sched/) optimises the latency of ONE
// inference; a serving system multiplexes many. The server adds the
// request level on top of the per-request machinery:
//
//   * Admission: a bounded MPMC queue with per-request deadlines; a full
//     queue rejects, a request that would miss its deadline is dropped
//     before it executes, and while degraded a circuit breaker sheds
//     requests no survivor plan can serve in time (kBreakerRejected).
//   * Stream slots: `slots_per_gpu` lanes, each spanning the whole vGPU
//     set — the modelled analogue of K CUDA streams per GPU (§III-A's L).
//     A request dispatched while k-1 others are in flight runs
//     stream_contention_scale(k, demand, kappa) times slower: the cost
//     model's malleable-task contention formula (Fig. 1).
//   * Schedule cache + plan pool: (model fingerprint, nGPU, algorithm,
//     window, survivor mask) -> plan, so repeat requests skip profiling and
//     scheduling, including survivor plans prewarmed on health transitions.
//   * Health (DESIGN.md §6f): GPU outages are shared across requests; later
//     requests plan on the survivors, probes bring the GPU back, victims
//     retry with backoff (deadline-aware), slow requests may hedge.
//   * Metrics: serve::Metrics counters and tail-latency reservoirs.
//
// Every per-request decision above is one serve::Dispatcher
// (dispatcher.h), in virtual time, behind two thin drivers:
//   * run_trace(trace) — deterministic: arrivals in (arrival, id) order,
//     every verdict and metric bit-identical across reruns and thread
//     counts; the committed requests then run on the engine, one
//     parallel_for lane per stream slot.
//   * start()/submit()/drain() — online: submit() applies the breaker and
//     races the bounded queue from any thread; lanes take each dispatch
//     decision under one mutex and run the engine outside it. Same policy
//     and conservation laws; decision order follows thread scheduling.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cost/gpu_spec.h"
#include "fault/fault_plan.h"
#include "serve/health.h"
#include "serve/metrics.h"
#include "serve/plan_pool.h"
#include "serve/queue.h"
#include "serve/request.h"
#include "serve/schedule_cache.h"
#include "sim/timeline.h"

namespace hios::serve {

class Dispatcher;

// Fixed serving policy (DESIGN.md §6e/§6f). Failover on a per-request fault
// and survivor-plan prewarm on every health transition are always on.
/// GPU fraction one in-flight request saturates (feeds the contention
/// formula): 5 concurrent requests fill the machine exactly.
inline constexpr double kRequestDemand = 0.2;
/// Re-dispatch attempts after a failed one.
inline constexpr int kMaxRetries = 2;
/// Each retry after the first multiplies the backoff by this.
inline constexpr double kRetryBackoffMultiplier = 2.0;
/// Committed dispatches a hedge decision needs before it trusts their p99.
inline constexpr std::size_t kHedgeMinSamples = 16;
/// Upper bound of ServerOptions::slots_per_gpu: start() spawns one lane
/// thread per slot.
inline constexpr int kMaxSlotsPerGpu = 256;

/// Serving configuration.
struct ServerOptions {
  /// Machine model; num_gpus here is the serving GPU count.
  cost::Platform platform = cost::make_a40_server(2);
  /// Stream slots per GPU: K requests execute concurrently on the vGPU set.
  /// At most kMaxSlotsPerGpu.
  int slots_per_gpu = 2;
  /// Admission queue bound; a full queue rejects new requests.
  std::size_t queue_capacity = 64;
  /// Scheduling algorithm + tunables for cached plans.
  std::string algorithm = "hios-lp";
  sched::SchedulerConfig config;  ///< num_gpus is overridden from platform
  /// Execute real tensors through the engine (true) or account virtual
  /// time only (false; throughput benchmarks).
  bool use_engine = true;
  /// Fault script injected into every request's engine run (per-request
  /// virtual time, so each request sees the same script). nullptr = none.
  /// A fault that leaves a request incomplete reschedules it on the
  /// survivors (runtime::execute_with_failover). Mutually exclusive with
  /// `outages`.
  const fault::FaultPlan* faults = nullptr;
  /// Engine wall-clock watchdog per blocking receive (<= 0 disables).
  double watchdog_ms = 60000.0;

  // --- degraded-mode serving (DESIGN.md §6f) ----------------------------
  /// Server-virtual-time GPU outage windows (the chaos script): unlike
  /// `faults`, one request's failure here is everyone's failure — the
  /// HealthTracker marks the GPU down and later requests plan around it.
  /// Mutually exclusive with `faults`.
  std::vector<GpuOutage> outages;
  HealthOptions health;
  /// First retry backoff; each further retry multiplies it by
  /// kRetryBackoffMultiplier, up to kMaxRetries retries.
  double retry_backoff_ms = 1.0;
  /// Hedge trigger: issue a backup dispatch when a request's projected
  /// execution time exceeds hedge_multiplier * p99 of prior dispatches
  /// (<= 0 disables hedging; needs >= kHedgeMinSamples history).
  double hedge_multiplier = 0.0;
  /// Shed deadline requests at admission when even an unqueued survivor
  /// plan cannot meet the deadline (degraded topology only).
  bool breaker = true;

  /// Throws hios::Error naming the offending field on invalid values
  /// (out-of-range counts, out-of-range outages, faults+outages together,
  /// ...).
  void validate() const;
};

/// Everything a deterministic trace run produced.
struct ServeReport {
  std::vector<Response> responses;  ///< sorted by request id
  double makespan_ms = 0.0;         ///< last virtual completion
  double throughput_rps = 0.0;      ///< completed requests per virtual second
  /// Per-request engine timelines shifted to their virtual dispatch times
  /// and merged (engine mode only).
  sim::Timeline timeline;
  Json metrics;                     ///< Metrics::to_json() after the run
  Json health;                      ///< HealthTracker::to_json() after the run
};

/// Slowdown of one request when `concurrency` requests share the vGPU set,
/// each saturating fraction `demand` of every GPU: `concurrency` identical
/// unit-time streams through cost::contention_stage_time (zero stream
/// overhead), i.e. max(1, k*r) with the kappa penalty beyond saturation.
double stream_contention_scale(int concurrency, double demand, double kappa);

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  /// Registers `model` under `name`; requests reference it by name.
  /// Re-registering a name replaces the model (the schedule cache keys on
  /// structure, so stale plans are simply never hit again).
  void register_model(const std::string& name, ops::Model model);
  const ops::Model& model(const std::string& name) const;

  /// Deterministic virtual-time serving of a trace (see file comment).
  /// Throws hios::Error while online lanes are running (between start()
  /// and drain()): both drivers share the health state.
  ServeReport run_trace(const Trace& trace);

  // --- online API -----------------------------------------------------
  /// Spawns the lane workers. Idempotent.
  void start();
  /// Admission-checks and enqueues; the future resolves when a lane
  /// finishes the request (immediately when the breaker sheds it, the
  /// queue is full, or the model is unknown). Requires start().
  std::future<Response> submit(Request request);
  /// Closes the queue, lets workers drain every admitted request, joins.
  void drain();

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  ScheduleCache& cache() { return cache_; }
  PlanPool& plan_pool() { return pool_; }
  const HealthTracker& health() const { return health_; }
  const ServerOptions& options() const { return options_; }
  /// Concurrent request lanes (= slots_per_gpu).
  int num_lanes() const { return options_.slots_per_gpu; }

 private:
  struct EngineOutcome {
    bool ok = false;
    bool watchdog = false;
    bool recovered = false;
    std::string error;
    std::map<int, ops::Tensor> outputs;
    sim::Timeline timeline;
    runtime::RecoveryMetrics recovery;
  };
  struct OnlineItem;

  static ServerOptions validated(ServerOptions options);
  static sched::SchedulerConfig effective_config(const ServerOptions& options);

  std::shared_ptr<const CachedPlan> resolve_plan(const ops::Model& model);
  EngineOutcome execute_plan(const ops::Model& model, const CachedPlan& plan);
  /// Moves a successful engine run's tensors into the response.
  void take_outputs(Response& response, EngineOutcome& out);
  void online_worker();

  ServerOptions options_;
  sched::SchedulerConfig config_;  ///< options_.config with num_gpus applied
  ScheduleCache cache_;
  Metrics metrics_;
  HealthTracker health_;
  PlanPool pool_;
  std::map<std::string, ops::Model> models_;
  mutable std::mutex models_mu_;

  std::unique_ptr<Dispatcher> online_;  ///< the online lanes' policy
  std::mutex online_mu_;                ///< guards online_ (and health_ through it)
  std::unique_ptr<BoundedQueue<OnlineItem>> online_queue_;
  std::vector<std::thread> workers_;
};

}  // namespace hios::serve
