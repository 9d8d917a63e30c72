#include "serve/server.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>

#include "cost/cost_model.h"
#include "runtime/failover.h"
#include "serve/dispatcher.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace hios::serve {

double stream_contention_scale(int concurrency, double demand, double kappa) {
  HIOS_CHECK(concurrency >= 1, "stream_contention_scale: concurrency must be >= 1");
  HIOS_CHECK(demand > 0.0, "stream_contention_scale: demand must be > 0");
  const std::vector<double> times(static_cast<std::size_t>(concurrency), 1.0);
  const std::vector<double> demands(static_cast<std::size_t>(concurrency), demand);
  return cost::contention_stage_time(times, demands, kappa, /*stream_overhead_ms=*/0.0);
}

void ServerOptions::validate() const {
  HIOS_CHECK(!platform.name.empty(), "ServerOptions: platform.name must not be empty");
  HIOS_CHECK(platform.num_gpus >= 1 && platform.num_gpus <= 32,
             "ServerOptions: platform.num_gpus must be in [1, 32] (got "
                 << platform.num_gpus << ")");
  HIOS_CHECK(slots_per_gpu >= 1 && slots_per_gpu <= kMaxSlotsPerGpu,
             "ServerOptions: slots_per_gpu must be in [1, " << kMaxSlotsPerGpu << "] (got "
                                                            << slots_per_gpu << ")");
  HIOS_CHECK(queue_capacity >= 1, "ServerOptions: queue_capacity must be >= 1");
  HIOS_CHECK(!algorithm.empty(), "ServerOptions: algorithm must not be empty");
  HIOS_CHECK(retry_backoff_ms >= 0.0, "ServerOptions: retry_backoff_ms must be >= 0 (got "
                                          << retry_backoff_ms << ")");
  health.validate();
  for (std::size_t i = 0; i < outages.size(); ++i) {
    const GpuOutage& o = outages[i];
    HIOS_CHECK(o.gpu >= 0 && o.gpu < platform.num_gpus,
               "ServerOptions: outages[" << i << "].gpu " << o.gpu
                                         << " out of range [0, " << platform.num_gpus
                                         << ")");
    HIOS_CHECK(o.from_ms >= 0.0,
               "ServerOptions: outages[" << i << "].from_ms must be >= 0 (got "
                                         << o.from_ms << ")");
    HIOS_CHECK(o.to_ms > o.from_ms,
               "ServerOptions: outages[" << i << "].to_ms must be > from_ms");
  }
  // At every instant at least one GPU must survive. Concurrent-down count
  // only changes at window starts, so checking each start suffices.
  for (std::size_t i = 0; i < outages.size(); ++i) {
    std::set<int> down;
    for (const GpuOutage& o : outages) {
      if (o.from_ms <= outages[i].from_ms && outages[i].from_ms < o.to_ms) {
        down.insert(o.gpu);
      }
    }
    HIOS_CHECK(static_cast<int>(down.size()) < platform.num_gpus,
               "ServerOptions: outages leave no survivor GPU at t="
                   << outages[i].from_ms << " ms");
  }
  HIOS_CHECK(!(faults != nullptr && !faults->empty() && !outages.empty()),
             "ServerOptions: faults (per-request script) and outages (shared "
             "server-time script) are mutually exclusive");
}

ServerOptions Server::validated(ServerOptions options) {
  options.validate();
  return options;
}

sched::SchedulerConfig Server::effective_config(const ServerOptions& options) {
  sched::SchedulerConfig config = options.config;
  config.num_gpus = options.platform.num_gpus;
  return config;
}

Server::Server(ServerOptions options)
    : options_(validated(std::move(options))),
      config_(effective_config(options_)),
      cache_(options_.platform),
      health_(options_.platform.num_gpus, options_.health),
      pool_(cache_, options_.algorithm, config_) {
  metrics_.set_queue_capacity(options_.queue_capacity);
}

Server::~Server() { drain(); }

void Server::register_model(const std::string& name, ops::Model model) {
  HIOS_CHECK(!name.empty(), "register_model: name must not be empty");
  std::lock_guard<std::mutex> lock(models_mu_);
  models_.insert_or_assign(name, std::move(model));
}

const ops::Model& Server::model(const std::string& name) const {
  std::lock_guard<std::mutex> lock(models_mu_);
  auto it = models_.find(name);
  HIOS_CHECK(it != models_.end(), "unknown model '" << name << "'");
  // std::map node addresses are stable and models are never erased, so the
  // reference outlives the lock.
  return it->second;
}

std::shared_ptr<const CachedPlan> Server::resolve_plan(const ops::Model& model) {
  CacheOutcome outcome = CacheOutcome::kHit;
  auto plan =
      cache_.get(model, options_.algorithm, config_, TopologyVersion{}, &outcome);
  metrics_.on_cache_result(outcome);
  return plan;
}

Server::EngineOutcome Server::execute_plan(const ops::Model& model,
                                           const CachedPlan& plan) {
  EngineOutcome out;
  try {
    if (options_.faults != nullptr && !options_.faults->empty()) {
      runtime::FailoverOptions fo;
      fo.algorithm = options_.algorithm;
      fo.config = config_;
      fo.exec.watchdog_ms = options_.watchdog_ms;
      auto result = runtime::execute_with_failover(
          model, plan.profiled.graph, plan.schedule, plan.profiled.cost,
          *options_.faults, /*inputs=*/{}, fo);
      out.outputs = std::move(result.outputs);
      out.timeline = std::move(result.primary.timeline);
      out.recovery = result.metrics;
      out.recovered = result.metrics.fault_occurred && result.metrics.recovered;
    } else {
      runtime::ExecOptions eo;
      eo.watchdog_ms = options_.watchdog_ms;
      auto result = runtime::execute_schedule(model, plan.profiled.graph,
                                              plan.schedule, *plan.profiled.cost,
                                              /*inputs=*/{}, eo);
      out.outputs = std::move(result.outputs);
      out.timeline = std::move(result.timeline);
    }
    out.ok = true;
  } catch (const runtime::WatchdogError& e) {
    out.watchdog = true;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

void Server::take_outputs(Response& response, EngineOutcome& out) {
  response.outputs = std::move(out.outputs);
  response.recovered = response.recovered || out.recovered;
  if (options_.faults != nullptr) metrics_.on_failover(out.recovery);
}

ServeReport Server::run_trace(const Trace& trace) {
  HIOS_CHECK(workers_.empty(),
             "Server::run_trace: online lanes are running; call drain() first");
  using Ticket = Dispatcher::Ticket;
  Dispatcher dispatcher(options_, health_, pool_, metrics_);
  std::vector<Ticket> tickets;
  tickets.reserve(trace.requests.size());
  for (const Request& req : trace.requests) tickets.emplace_back(req);

  // Resolve (and cold-build) plans in sorted model-name order so cache
  // hit/miss counters are trace-order independent.
  {
    std::map<std::string, std::pair<const ops::Model*, std::shared_ptr<const CachedPlan>>>
        resolved;
    for (const Ticket& t : tickets) resolved[t.request.model];
    for (auto& [name, entry] : resolved) {
      entry.first = &model(name);
      entry.second = resolve_plan(*entry.first);
      dispatcher.add_model(name, *entry.first);
    }
    for (Ticket& t : tickets) std::tie(t.model, t.plan) = resolved.at(t.request.model);
  }

  // Virtual-time admission + dispatch in (arrival, id) order.
  std::vector<Ticket*> order;
  order.reserve(tickets.size());
  for (Ticket& t : tickets) order.push_back(&t);
  std::ranges::stable_sort(order, {}, [](const Ticket* t) {
    return std::pair(t->request.arrival_ms, t->request.id);
  });
  for (Ticket* t : order) dispatcher.admit(*t);
  dispatcher.dispatch_all();

  // --- engine execution of the committed requests -----------------------
  // One fork-join lane per stream slot: the liveness/TSan surface. Results
  // land in per-ticket slots, so thread interleaving cannot affect anything
  // the report contains.
  auto committed = [](const Ticket& t) { return t.response.verdict == Verdict::kCompleted; };
  std::vector<EngineOutcome> outcomes(tickets.size());
  if (options_.use_engine) {
    std::vector<std::size_t> work_items;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (committed(tickets[i])) work_items.push_back(i);
    }
    util::ThreadPool(num_lanes()).parallel_for(work_items.size(), [&](std::size_t k) {
      const Ticket& t = tickets[work_items[k]];
      outcomes[work_items[k]] = execute_plan(*t.model, *t.exec_plan);
    });
  }

  // --- assemble report + metrics in request-id order --------------------
  ServeReport report;
  report.timeline.num_gpus = options_.platform.num_gpus;
  std::vector<std::size_t> by_id(tickets.size());
  for (std::size_t i = 0; i < by_id.size(); ++i) by_id[i] = i;
  std::ranges::sort(by_id, {}, [&](std::size_t i) { return tickets[i].response.id; });

  for (std::size_t idx : by_id) {
    Ticket& t = tickets[idx];
    if (options_.use_engine && committed(t)) {
      EngineOutcome& out = outcomes[idx];
      if (!out.ok) {
        Dispatcher::fail(t, out.error, out.watchdog);
      } else {
        take_outputs(t.response, out);
        report.timeline.merge(out.timeline.shifted(t.response.start_ms));
      }
    }
    dispatcher.record(t);
    report.makespan_ms = std::max(report.makespan_ms, t.response.finish_ms);
    report.responses.push_back(std::move(t.response));
  }
  metrics_.set_makespan(report.makespan_ms);

  const Metrics::Snapshot snap = metrics_.snapshot();
  report.throughput_rps = snap.throughput_rps();
  report.metrics = metrics_.to_json();
  report.health = health_.to_json();
  return report;
}

// --- online API ---------------------------------------------------------

struct Server::OnlineItem {
  Dispatcher::Ticket ticket;
  std::promise<Response> promise;
};

void Server::start() {
  if (!workers_.empty()) return;
  online_ = std::make_unique<Dispatcher>(options_, health_, pool_, metrics_);
  online_queue_ =
      std::make_unique<BoundedQueue<OnlineItem>>(options_.queue_capacity);
  const int lanes = num_lanes();
  workers_.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    workers_.emplace_back([this] { online_worker(); });
  }
}

std::future<Response> Server::submit(Request request) {
  HIOS_CHECK(!workers_.empty(), "Server::submit requires start()");
  OnlineItem item{Dispatcher::Ticket(std::move(request)), {}};
  Dispatcher::Ticket& t = item.ticket;
  std::future<Response> future = item.promise.get_future();
  bool admit = false;
  try {
    t.model = &model(t.request.model);
    std::lock_guard<std::mutex> lock(online_mu_);
    online_->add_model(t.request.model, *t.model);
    admit = !online_->breaker_sheds(t);
  } catch (const std::exception& e) {
    Dispatcher::fail(t, e.what(), false);
  }
  if (admit && online_queue_->try_push(std::move(item))) {
    metrics_.record_queue_depth(online_queue_->size());
    return future;
  }
  if (admit) Dispatcher::reject(t);  // full queue
  online_->record(t);
  item.promise.set_value(std::move(t.response));
  return future;
}

void Server::drain() {
  if (online_queue_) online_queue_->close();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

void Server::online_worker() {
  using Step = Dispatcher::Step;
  while (auto popped = online_queue_->pop()) {
    Dispatcher::Ticket& t = popped->ticket;
    try {
      t.plan = resolve_plan(*t.model);
      for (Step step = Step::kRetry; step != Step::kDone;) {
        if (step == Step::kRetry) {
          std::lock_guard<std::mutex> lock(online_mu_);
          step = online_->dispatch(t);
          continue;
        }
        if (!options_.use_engine) break;
        EngineOutcome out = execute_plan(*t.model, *t.exec_plan);
        if (out.ok) {
          take_outputs(t.response, out);
          break;
        }
        std::lock_guard<std::mutex> lock(online_mu_);
        step = online_->engine_failed(t, out.error, out.watchdog);
      }
    } catch (const std::exception& e) {
      Dispatcher::fail(t, e.what(), false);
    }
    online_->record(t);
    popped->promise.set_value(std::move(t.response));
  }
}

}  // namespace hios::serve
