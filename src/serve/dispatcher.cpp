#include "serve/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/stats.h"

namespace hios::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// True when `gpu` is inside an outage window at instant `t` ([from, to)).
bool outage_active(const std::vector<GpuOutage>& outages, int gpu, double t) {
  for (const GpuOutage& o : outages) {
    if (o.gpu == gpu && o.from_ms <= t && t < o.to_ms) return true;
  }
  return false;
}

double contention(const ServerOptions& options, int in_flight) {
  return stream_contention_scale(in_flight, kRequestDemand,
                                 options.platform.gpu.contention_kappa);
}
}  // namespace

Dispatcher::Dispatcher(const ServerOptions& options, HealthTracker& health, PlanPool& pool,
                       Metrics& metrics)
    : options_(options),
      health_(health),
      pool_(pool),
      metrics_(metrics),
      lane_free_(static_cast<std::size_t>(options.slots_per_gpu), 0.0),
      seen_transitions_(health.transitions().size()),
      warmed_(health.generation()) {}

void Dispatcher::add_model(const std::string& name, const ops::Model& model) {
  models_.emplace(name, &model);
}

// Replays queued evidence and due probes in time order up to `t`, counting
// each health transition and prewarming survivor plans after it. Evidence
// is keyed by its *detection* time: a request dispatched before a failure
// surfaced must still see the full mask (and become a victim itself if it
// overlaps the outage). `t` must be finite: a permanent outage reschedules
// probes forever.
void Dispatcher::advance_health(double t) {
  for (;;) {
    const double next_evidence = evidence_.empty() ? kInf : evidence_.begin()->first;
    const double next_probe = health_.next_probe_due_ms();
    if (std::min(next_evidence, next_probe) > t) break;
    if (next_evidence <= next_probe) {
      health_.observe(evidence_.begin()->second);
      evidence_.erase(evidence_.begin());
    } else {
      for (int g : health_.take_due_probes(next_probe)) {
        const bool up = !outage_active(options_.outages, g, next_probe);
        health_.observe({.kind = up ? FaultEvidence::Kind::kProbeSuccess
                                    : FaultEvidence::Kind::kProbeFailure,
                         .gpu = g,
                         .at_ms = next_probe});
        metrics_.on_probe(up);
      }
    }
    for (; seen_transitions_ < health_.transitions().size(); ++seen_transitions_) {
      metrics_.on_health_transition();
    }
    if (health_.generation() == warmed_) continue;
    warmed_ = health_.generation();
    for (const auto& [name, model] : models_) {
      metrics_.on_pool_prewarm(pool_.prewarm(*model, health_.up_mask()));
    }
  }
}

// The survivor-topology plan for the current health state (full-topology
// plans bypass the pool, so healthy traffic never moves the pool counters).
std::shared_ptr<const CachedPlan> Dispatcher::current_plan(const Ticket& t) {
  if (health_.all_up()) return t.plan;
  CacheOutcome outcome = CacheOutcome::kHit;
  auto plan = pool_.plan_for(*t.model, health_.up_mask(), &outcome);
  metrics_.on_pool_result(outcome);
  return plan;
}

int Dispatcher::free_lane(int exclude) const {
  int best = -1;
  for (int l = 0; l < num_lanes(); ++l) {
    if (l != exclude && (best < 0 || clock(l) < clock(best))) best = l;
  }
  return best;
}

int Dispatcher::in_flight_at(int lane, double start) const {
  int k = 1;
  for (int l = 0; l < num_lanes(); ++l) k += l != lane && clock(l) > start;
  return k;
}

// Earliest outage window overlapping [start, finish) on a GPU the plan
// places work on; nullptr when the run is clear.
const GpuOutage* Dispatcher::victim_outage(const std::vector<int>& gpus, double start,
                                           double finish) const {
  const GpuOutage* best = nullptr;
  for (const GpuOutage& o : options_.outages) {
    if (!(o.from_ms < finish && o.to_ms > start)) continue;
    if (std::find(gpus.begin(), gpus.end(), o.gpu) == gpus.end()) continue;
    if (best == nullptr || std::max(start, o.from_ms) < std::max(start, best->from_ms)) {
      best = &o;
    }
  }
  return best;
}

bool Dispatcher::breaker_sheds(Ticket& t) {
  const double arrival = t.request.arrival_ms;
  advance_health(arrival);
  if (!options_.breaker || health_.all_up() || !std::isfinite(t.request.deadline_ms)) {
    return false;
  }
  auto plan = current_plan(t);
  if (std::max(arrival, clock(free_lane(-1))) + plan->latency_ms <= t.request.deadline_ms) {
    return false;
  }
  t.response.verdict = Verdict::kBreakerRejected;
  t.response.finish_ms = arrival;
  t.response.topo_mask = plan->topo_mask;
  return true;
}

void Dispatcher::admit(Ticket& t) {
  dispatch_until(t.request.arrival_ms);
  if (breaker_sheds(t)) return;
  if (pending_.size() >= options_.queue_capacity) return reject(t);
  pending_.emplace(t.ready_ms, t.request.id, t.attempt, &t);
  t.depth_at_admission = pending_.size();
  metrics_.record_queue_depth(pending_.size());
}

// Dispatches queued attempts in (ready, id, attempt) order while the
// earliest-free lane can start them by `horizon`.
void Dispatcher::dispatch_until(double horizon) {
  while (!pending_.empty()) {
    const auto [ready, id, n, t] = *pending_.begin();
    const int lane = free_lane(-1);
    const double start = std::max(clock(lane), ready);
    if (start > horizon) break;
    pending_.erase(pending_.begin());
    if (attempt(*t, lane, start) == Step::kRetry) {
      pending_.emplace(t->ready_ms, t->request.id, t->attempt, t);
      metrics_.record_queue_depth(pending_.size());
    }
  }
}

void Dispatcher::dispatch_all() { dispatch_until(kInf); }

Dispatcher::Step Dispatcher::dispatch(Ticket& t) {
  const int lane = free_lane(-1);
  return attempt(t, lane, std::max(clock(lane), t.ready_ms));
}

// A request dispatched while k-1 others overlap its start runs
// stream_contention_scale(k, ...) slower, frozen at dispatch.
Dispatcher::Step Dispatcher::attempt(Ticket& t, int lane, double start) {
  advance_health(start);
  Response& resp = t.response;
  const double arrival = t.request.arrival_ms;
  auto plan = current_plan(t);
  const int in_flight = in_flight_at(lane, start);
  const double scale = contention(options_, in_flight);
  const double duration = plan->latency_ms * scale;
  const double finish = start + duration;

  resp.lane = lane;
  resp.concurrency = in_flight;
  resp.queue_ms = start - arrival;
  resp.start_ms = start;
  resp.base_ms = plan->latency_ms;
  resp.contention_scale = scale;
  resp.attempts = t.attempt;
  resp.topo_mask = plan->topo_mask;

  if (finish > t.request.deadline_ms) {
    // Unmeetable deadline: never executed, lane untouched. The first
    // attempt is a plain drop; a retry that can no longer make it
    // terminates as failed (the request did burn a failed attempt).
    resp.finish_ms = start;
    resp.latency_ms = 0.0;
    resp.verdict = t.attempt == 1 ? Verdict::kDropped : Verdict::kFailed;
    if (t.attempt > 1) resp.error = "deadline unmeetable after failed attempt";
    return Step::kDone;
  }

  if (const GpuOutage* o = victim_outage(plan->gpus, start, finish)) {
    // A GPU this plan lands work on dies mid-request: the attempt fails at
    // detection time, the lane is held until then, and the failure becomes
    // shared health evidence (applied when virtual time reaches it).
    const double detected = std::max(start, o->from_ms);
    clock(lane) = detected;
    evidence_.emplace(detected, FaultEvidence{.kind = FaultEvidence::Kind::kFailStop,
                                              .gpu = o->gpu,
                                              .at_ms = detected});
    return retry_or_fail(t, plan->latency_ms, detected, "retries exhausted: gpu outage");
  }

  // Committed: the attempt completes (provisionally, until the engine
  // proves the tensors).
  resp.verdict = Verdict::kCompleted;
  resp.finish_ms = finish;
  resp.latency_ms = finish - arrival;
  resp.recovered = t.attempt > 1;
  clock(lane) = finish;
  t.exec_plan = plan;

  // Hedge: when this dispatch projects far beyond the p99 of earlier ones,
  // issue a backup on the next-free lane, cancel the loser the moment the
  // winner completes, keep the winner's numbers. The hedge wins when its
  // lane has drained enough that its (later) start pays a smaller
  // contention scale.
  if (options_.hedge_multiplier > 0.0 && num_lanes() > 1 &&
      duration_samples_.size() >= kHedgeMinSamples &&
      duration > options_.hedge_multiplier * percentile_sorted(duration_samples_, 0.99)) {
    const int lane2 = free_lane(lane);
    const double start2 = std::max(clock(lane2), start);
    const int k2 = in_flight_at(lane2, start2);
    const double scale2 = contention(options_, k2);
    const double finish2 = start2 + plan->latency_ms * scale2;
    if (victim_outage(plan->gpus, start2, finish2) == nullptr) {
      resp.hedged = true;
      clock(lane) = clock(lane2) = std::min(finish, finish2);
      if (finish2 < finish) {
        resp.hedge_won = true;
        resp.lane = lane2;
        resp.concurrency = k2;
        resp.contention_scale = scale2;
        resp.queue_ms = start2 - arrival;
        resp.start_ms = start2;
        resp.finish_ms = finish2;
        resp.latency_ms = finish2 - arrival;
      }
    }
  }
  duration_samples_.insert(
      std::upper_bound(duration_samples_.begin(), duration_samples_.end(), duration), duration);
  return Step::kCommitted;
}

Dispatcher::Step Dispatcher::retry_or_fail(Ticket& t, double base_ms, double detected,
                                           const std::string& cause) {
  const bool attempts_left = t.attempt <= kMaxRetries;
  const double backoff =
      options_.retry_backoff_ms * std::pow(kRetryBackoffMultiplier, t.attempt - 1);
  // Deadline-aware: retry only when an uncontended re-run could still make
  // it (the failed plan's base latency is the estimate).
  if (attempts_left && detected + backoff + base_ms <= t.request.deadline_ms) {
    ++t.retries;
    ++t.attempt;
    t.ready_ms = detected + backoff;
    return Step::kRetry;
  }
  t.response.verdict = Verdict::kFailed;
  t.response.finish_ms = detected;
  t.response.latency_ms = detected - t.request.arrival_ms;
  t.response.error = attempts_left ? "retry abandoned: deadline unmeetable" : cause;
  return Step::kDone;
}

Dispatcher::Step Dispatcher::engine_failed(Ticket& t, const std::string& error,
                                           bool watchdog) {
  const Step step = retry_or_fail(t, t.exec_plan->latency_ms, t.response.finish_ms, error);
  t.watchdog = step == Step::kDone && watchdog;
  return step;
}

void Dispatcher::reject(Ticket& t) {
  t.response.verdict = Verdict::kRejected;
  t.response.finish_ms = t.request.arrival_ms;
}

void Dispatcher::fail(Ticket& t, const std::string& error, bool watchdog) {
  t.response.verdict = Verdict::kFailed;
  t.response.error = error;
  t.watchdog = watchdog;
}

void Dispatcher::record(const Ticket& t) const {
  const Response& r = t.response;
  metrics_.on_submitted();
  if (r.verdict == Verdict::kRejected) return metrics_.on_rejected();
  if (r.verdict == Verdict::kBreakerRejected) return metrics_.on_breaker_rejected();
  metrics_.on_admitted(t.depth_at_admission);
  for (int i = 0; i < t.retries; ++i) metrics_.on_retried();
  if (r.hedged) metrics_.on_hedged();
  if (r.hedge_won) metrics_.on_hedge_won();
  if (r.verdict == Verdict::kCompleted) {
    metrics_.on_completed(r.latency_ms, r.queue_ms);
  } else if (r.verdict == Verdict::kDropped) {
    metrics_.on_dropped();
  } else {
    metrics_.on_failed(t.watchdog);
  }
}

}  // namespace hios::serve
