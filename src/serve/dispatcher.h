// serve::Dispatcher — the one per-request serving policy (DESIGN.md §6e/§6f).
//
// Every decision about a request, in virtual time and without the engine:
// lane clocks and contention pricing, health replay (queued failure
// evidence and due probes, prewarm on each transition), plan-for-health
// selection, the circuit breaker, deadline drops before execution, outage
// victims and the backoff/deadline-aware retry rule, p99-triggered hedging,
// and the one verdict -> Metrics function (record).
//
// Server::run_trace (admit, dispatch_all) and the online lanes (dispatch,
// engine_failed) are its two drivers; see server.h. Not locked itself: one
// driver thread at a time.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "serve/server.h"

namespace hios::serve {

class Dispatcher {
 public:
  /// One request's state across admission, attempts and its verdict.
  struct Ticket {
    explicit Ticket(Request req) : request(std::move(req)), ready_ms(request.arrival_ms) {
      response.id = request.id;
    }

    Request request;
    double ready_ms;        ///< earliest start of the next attempt
    int attempt = 1;        ///< number of the next attempt
    int retries = 0;        ///< failed attempts that re-dispatched
    std::size_t depth_at_admission = 0;  ///< virtual queue depth after admission
    bool watchdog = false;  ///< the terminal failure was an engine watchdog fire
    const ops::Model* model = nullptr;
    std::shared_ptr<const CachedPlan> plan;       ///< full-topology plan
    std::shared_ptr<const CachedPlan> exec_plan;  ///< plan of the committed attempt
    Response response;
  };

  enum class Step {
    kCommitted,  ///< completes in virtual time: the engine runs exec_plan
    kRetry,      ///< failed, or no GPU is up; the next attempt may start at ready_ms
    kDone,       ///< terminal verdict without execution (drop or failure)
  };

  Dispatcher(const ServerOptions& options, HealthTracker& health, PlanPool& pool,
             Metrics& metrics);

  /// Adds `model` to those whose survivor plans are prewarmed (in name
  /// order) on each health transition.
  void add_model(const std::string& name, const ops::Model& model);
  /// Advances health to the arrival; while degraded, sheds a deadlined
  /// request that even an unqueued survivor-plan run would miss.
  bool breaker_sheds(Ticket& t);

  // Trace driver: admission at arrival (dispatching every queued attempt
  // that starts by then, then breaker, then the bounded virtual queue).
  void admit(Ticket& t);
  void dispatch_all();

  // Online driver: `t`'s next attempt on the earliest-free lane; an engine
  // failure of its committed attempt, detected at the attempt's finish.
  Step dispatch(Ticket& t);
  Step engine_failed(Ticket& t, const std::string& error, bool watchdog);

  static void reject(Ticket& t);
  static void fail(Ticket& t, const std::string& error, bool watchdog);
  /// Accounts `t`'s verdict, once per request. Touches only `t` and the
  /// (locked) Metrics, so drivers may call it without serialising.
  void record(const Ticket& t) const;

 private:
  void dispatch_until(double horizon);
  /// One attempt of `t` on `lane` at virtual time `start`.
  Step attempt(Ticket& t, int lane, double start);
  /// Backoff/deadline-aware retry, or a kFailed verdict naming `cause`.
  Step retry_or_fail(Ticket& t, double base_ms, double detected, const std::string& cause);
  std::shared_ptr<const CachedPlan> current_plan(const Ticket& t);
  void advance_health(double t);
  int num_lanes() const { return static_cast<int>(lane_free_.size()); }
  /// Virtual time at which `lane` is next free.
  double& clock(int lane) { return lane_free_[static_cast<std::size_t>(lane)]; }
  double clock(int lane) const { return lane_free_[static_cast<std::size_t>(lane)]; }
  int free_lane(int exclude) const;
  int in_flight_at(int lane, double start) const;
  const GpuOutage* victim_outage(const std::vector<int>& gpus, double start,
                                 double finish) const;

  const ServerOptions& options_;
  HealthTracker& health_;
  PlanPool& pool_;
  Metrics& metrics_;
  std::vector<double> lane_free_;
  std::set<std::tuple<double, RequestId, int, Ticket*>> pending_;  ///< (ready, id, attempt)
  std::multimap<double, FaultEvidence> evidence_;  ///< keyed by detection time
  std::vector<double> duration_samples_;           ///< committed dispatch durations, ascending
  std::map<std::string, const ops::Model*> models_;
  std::size_t seen_transitions_;
  uint64_t warmed_;  ///< health generation last prewarmed
};

}  // namespace hios::serve
