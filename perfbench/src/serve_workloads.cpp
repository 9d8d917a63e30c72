// Serving workload and the serving set-up the layer sweep shares.
//
//   serve-trace   deterministic Server::run_trace (no engine) on the
//                 full-size zoo: 4 GPUs x 4 slots, Poisson arrivals with
//                 deadlines, one GPU outage mid-trace, hedging and the
//                 breaker on. Timed repetitions rotate through the seed's
//                 traces, each on a fresh, pre-warmed Server, because Server
//                 metrics accumulate across run_trace calls.
#include "serve_workloads.h"

#include <cmath>
#include <cstring>
#include <map>

#include "core/hios.h"
#include "span.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

using namespace hios;

// --- serve-trace --------------------------------------------------------------

Zoo full_zoo(uint64_t seed) {
  Zoo zoo;
  zoo.emplace_back("inception", models::make_inception_v3());
  zoo.emplace_back("nasnet", models::make_nasnet());
  zoo.emplace_back("resnet", models::make_resnet50());
  zoo.emplace_back("squeezenet", models::make_squeezenet());
  models::RandwireOptions rw;
  rw.seed = seed;
  zoo.emplace_back("randwire", models::make_randwire(rw));
  return zoo;
}

serve::ServerOptions trace_server_options(double trace_ms) {
  serve::ServerOptions o;
  o.platform = cost::make_a40_server(kTraceGpus);
  o.slots_per_gpu = 4;
  o.algorithm = "hios-lp";
  o.use_engine = false;
  o.outages = {serve::GpuOutage{kOutageGpu, 0.4 * trace_ms, 0.5 * trace_ms}};
  o.hedge_multiplier = 1.0;
  o.breaker = true;
  return o;
}

serve::Trace make_trace(const Zoo& zoo, double rate_per_s, int requests, uint64_t seed) {
  serve::TraceParams p;
  for (const auto& [name, model] : zoo) p.models.push_back(name);
  p.num_requests = requests;
  p.mean_interarrival_ms = 1000.0 / rate_per_s;
  p.deadline_slack_ms = kDeadlineSlackMs;
  return serve::Trace::random(p, seed);
}

WarmServer::WarmServer(const Zoo& zoo, const serve::ServerOptions& options)
    : server(options) {
  sched::SchedulerConfig config = options.config;
  config.num_gpus = options.platform.num_gpus;
  const uint32_t all = (1u << static_cast<unsigned>(config.num_gpus)) - 1u;
  for (const auto& [name, model] : zoo) {
    server.register_model(name, model);
    const ops::Model& m = server.model(name);
    {
      const Span span("serve.plan_build");
      server.cache().get(m, options.algorithm, config, serve::TopologyVersion{});
    }
    // Every plan the outage can ask for: the full mask and each single-GPU-
    // down survivor set, then the outage GPU's survivors and their subsets.
    const Span span("serve.prewarm");
    const double t0 = wall_s();
    prewarm_builds += static_cast<int64_t>(server.plan_pool().prewarm(m, all, 0));
    for (const serve::GpuOutage& o : options.outages) {
      prewarm_builds += static_cast<int64_t>(
          server.plan_pool().prewarm(m, all & ~(1u << static_cast<unsigned>(o.gpu)), 0));
    }
    prewarm_ms += (wall_s() - t0) * 1e3;
  }
}

TraceOutcome summarize_trace(const serve::Trace& trace, const serve::ServeReport& report,
                             Tally& tally) {
  TraceOutcome out;
  int64_t good = 0;
  tally.check(report.responses.size() == trace.requests.size(),
              "serve-trace: one response per request");
  for (std::size_t i = 0; i < report.responses.size() && i < trace.requests.size(); ++i) {
    const serve::Response& r = report.responses[i];
    const serve::Request& q = trace.requests[i];
    bool consistent = r.id == q.id;
    if (r.verdict == serve::Verdict::kCompleted) {
      out.latencies_ms.push_back(r.latency_ms);
      consistent = consistent && r.finish_ms <= q.deadline_ms &&
                   std::abs(r.latency_ms - (r.finish_ms - q.arrival_ms)) <= 1e-6;
      if (consistent) ++good;
    }
    tally.op(consistent, "serve-trace: response " + std::to_string(r.id) + " inconsistent");
  }
  out.goodput = trace.requests.empty()
                    ? 0.0
                    : static_cast<double>(good) / static_cast<double>(trace.requests.size());
  return out;
}

bool matches_reference(const std::map<int, ops::Tensor>& outputs,
                       const std::map<int, ops::Tensor>& reference) {
  if (outputs.empty()) return false;
  for (const auto& [id, t] : outputs) {
    const auto it = reference.find(id);
    if (it == reference.end() || !(it->second.shape() == t.shape())) return false;
    if (std::memcmp(t.data(), it->second.data(), t.size() * sizeof(float)) != 0) return false;
  }
  return true;
}

namespace {

/// Modelled single-request latency of the full-topology plan `server`
/// serves for model `name`.
double served_plan_latency(serve::Server& server, const std::string& name) {
  sched::SchedulerConfig config = server.options().config;
  config.num_gpus = server.options().platform.num_gpus;
  return server.cache()
      .get(server.model(name), server.options().algorithm, config, serve::TopologyVersion{})
      ->latency_ms;
}

class ServeTrace final : public Workload {
 public:
  explicit ServeTrace(const Options& o) : options_(o) {}

  void setup() override {
    zoo_ = full_zoo(options_.seed);
    for (int k = 0; k < kTracesPerSeed; ++k) {
      traces_.push_back(make_trace(zoo_, kReferenceRate, kTraceRequests,
                                   options_.seed * kTracesPerSeed + static_cast<uint64_t>(k)));
    }
    next_ = warm(0);
    first_.resize(traces_.size());
  }

  LoopStats run(double seconds) override {
    LoopStats stats;
    const double t0 = wall_s();
    for (std::size_t n = 0;; ++n) {
      const std::size_t k = n % traces_.size();
      std::unique_ptr<WarmServer> ws = next_ ? std::move(next_) : warm(k);
      const double s = wall_s();
      serve::ServeReport report;
      {
        const Span span("serve.run_trace");
        report = ws->server.run_trace(traces_[k]);
      }
      stats.round_ops_per_s.push_back(static_cast<double>(traces_[k].requests.size()) /
                                      (wall_s() - s));
      const auto violations = conservation_violations(
          report.metrics, ws->server.metrics().snapshot().cache_lookups);
      loop_tally_.op(violations.empty(),
                     "serve-trace: " + (violations.empty() ? "" : violations.front()));
      const std::string metrics = report.metrics.dump();
      if (first_[k].empty()) {
        first_[k] = metrics;
        const TraceOutcome o = summarize_trace(traces_[k], report, loop_tally_);
        latencies_ms_.insert(latencies_ms_.end(), o.latencies_ms.begin(), o.latencies_ms.end());
        if (k == 0) {
          for (const auto& [name, model] : zoo_) {
            plan_latencies_.push_back(served_plan_latency(ws->server, name));
          }
        }
      } else {
        loop_tally_.op(metrics == first_[k], "serve-trace: metrics differ between identical runs");
      }
      const std::size_t done = n + 1;
      if (done % traces_.size() == 0 && wall_s() - t0 >= seconds) break;
    }
    // A served request's user-visible latency is its modelled (virtual-
    // time) latency, pooled over the seed's traces.
    stats.op_ms = latencies_ms_;
    return stats;
  }

  void check(Tally& tally) override {
    tally.check(!latencies_ms_.empty(), "serve-trace: nothing completed");
  }

  double plan_latency_ms() const override { return geomean(plan_latencies_); }

 private:
  std::unique_ptr<WarmServer> warm(std::size_t k) const {
    return std::make_unique<WarmServer>(
        zoo_, trace_server_options(traces_[k].requests.back().arrival_ms));
  }

  Options options_;
  Zoo zoo_;
  std::vector<serve::Trace> traces_;
  std::unique_ptr<WarmServer> next_;  ///< built in set-up for the first run
  std::vector<std::string> first_;    ///< metrics JSON of each trace's first run
  std::vector<double> latencies_ms_;  ///< completed requests of each first run
  std::vector<double> plan_latencies_;
};

}  // namespace

Zoo reduced_zoo(uint64_t seed) {
  Zoo zoo;
  {
    models::InceptionV3Options o;
    o.image_hw = 96;
    o.channel_scale = 8;
    zoo.emplace_back("inception", models::make_inception_v3(o));
  }
  {
    models::SqueezenetOptions o;
    o.image_hw = 48;
    o.channel_scale = 4;
    zoo.emplace_back("squeezenet", models::make_squeezenet(o));
  }
  {
    models::ResnetOptions o;
    o.image_hw = 64;
    o.channel_scale = 8;
    zoo.emplace_back("resnet", models::make_resnet50(o));
  }
  {
    models::NasnetOptions o;
    o.image_hw = 64;
    o.channel_scale = 8;
    o.cells_per_stack = 2;
    zoo.emplace_back("nasnet", models::make_nasnet(o));
  }
  {
    models::RandwireOptions o;
    o.image_hw = 64;
    o.channel_scale = 8;
    o.seed = seed;
    zoo.emplace_back("randwire", models::make_randwire(o));
  }
  return zoo;
}

serve::ServerOptions engine_server_options() {
  serve::ServerOptions o;
  o.platform = cost::make_a40_server(kEngineGpus);
  o.slots_per_gpu = kEngineLanes;
  o.queue_capacity = 16;
  o.algorithm = "hios-lp";
  o.use_engine = true;
  return o;
}

std::unique_ptr<Workload> make_serve_trace(const Options& o) {
  return std::make_unique<ServeTrace>(o);
}

}  // namespace perfbench
