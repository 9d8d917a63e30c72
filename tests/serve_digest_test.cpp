// Serving digest gate (label: golden): a fixed corpus of seeded traces
// served by Server::run_trace without the engine, each reduced to one
// FNV-1a digest of everything the run exposes — every Response field (doubles
// at %.17g), Metrics::to_json(), and the health state a caller can read
// (per-GPU state names, next probe times, up mask, generation, every
// transition). tests/golden/serve_digest.json holds the expected digests; a
// refactor of serve/ must leave all of them unchanged (DESIGN.md §6e).
//
// The corpus has serve-trace's shape on small models: 2-4 GPUs, 1-4 slots,
// Poisson arrivals with and without deadlines, one or two GPU outage windows
// (some permanent, some overlapping), hedging and the breaker on in most
// traces, HIOS-LP and HIOS-MR plans. On a mismatch the test names the first
// differing trace and writes the digests it computed to
// serve_digest.actual.json in its working directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "models/randwire.h"
#include "serve/server.h"
#include "util/error.h"
#include "util/rng.h"

namespace hios::serve {
namespace {

constexpr int kTraces = 240;
constexpr double kInf = std::numeric_limits<double>::infinity();

ops::Model branchy_model() {
  using namespace ops;
  Model m("branchy");
  const OpId in = m.add_input("x", TensorShape{1, 4, 8, 8});
  const OpId c1 = m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId cat = m.add_op(Op(OpKind::kConcat, "cat"), {c1, c2});
  m.add_op(Op(OpKind::kGlobalPool, "gp"), {cat});
  return m;
}

ops::Model chain_model() {
  using namespace ops;
  Model m("chain");
  const OpId in = m.add_input("x", TensorShape{1, 4, 16, 16});
  OpId prev = m.add_op(Op(OpKind::kConv2d, "c0", Conv2dAttr{8, 3, 3, 1, 1, 1, 1, 1}), {in});
  prev = m.add_op(Op(OpKind::kActivation, "r0"), {prev});
  prev = m.add_op(Op(OpKind::kPool2d, "p0", Pool2dAttr{PoolMode::kMax, 2, 2, 2, 2, 0, 0}), {prev});
  m.add_op(Op(OpKind::kGlobalPool, "gp"), {prev});
  return m;
}

ops::Model small_randwire() {
  models::RandwireOptions rw;
  rw.image_hw = 32;
  rw.channels = 16;
  rw.num_nodes = 8;
  rw.seed = 3;
  return models::make_randwire(rw);
}

const std::map<std::string, ops::Model>& zoo() {
  static const std::map<std::string, ops::Model> models = {
      {"branchy", branchy_model()}, {"chain", chain_model()}, {"randwire", small_randwire()}};
  return models;
}

/// Largest full-topology plan latency over the zoo for (gpus, algorithm):
/// the time scale each trace's arrivals, deadlines and outages are drawn in.
double base_latency(int gpus, const std::string& algorithm) {
  static std::map<std::pair<int, std::string>, double> memo;
  auto [it, fresh] = memo.try_emplace({gpus, algorithm}, 0.0);
  if (!fresh) return it->second;
  ScheduleCache cache(cost::make_a40_server(gpus));
  sched::SchedulerConfig config;
  config.num_gpus = gpus;
  for (const auto& [name, model] : zoo()) {
    it->second = std::max(it->second, cache.get(model, algorithm, config)->latency_ms);
  }
  return it->second;
}

struct Case {
  ServerOptions options;
  Trace trace;
};

Case make_case(uint64_t seed) {
  Rng rng(seed);
  Case c;
  ServerOptions& o = c.options;
  const int gpus = static_cast<int>(rng.uniform_int(2, 4));
  o.platform = cost::make_a40_server(gpus);
  o.slots_per_gpu = static_cast<int>(rng.uniform_int(1, 8));
  o.queue_capacity = static_cast<std::size_t>(rng.uniform_int(4, 64));
  o.algorithm = rng.flip(0.7) ? "hios-lp" : "hios-mr";
  o.use_engine = false;
  o.hedge_multiplier = rng.flip(0.8) ? rng.uniform(0.5, 2.0) : 0.0;
  o.breaker = rng.flip(0.85);

  const double base = base_latency(gpus, o.algorithm);
  TraceParams p;
  for (const auto& [name, model] : zoo()) {
    if (rng.flip(0.7)) p.models.push_back(name);
  }
  if (p.models.empty()) p.models.push_back("branchy");
  p.num_requests = static_cast<int>(rng.uniform_int(40, 120));
  p.mean_interarrival_ms = base * rng.uniform(0.1, 1.2) / o.slots_per_gpu;
  p.deadline_slack_ms = rng.flip(0.25) ? kNoDeadline : base * rng.uniform(1.2, 6.0);
  c.trace = Trace::random(p, seed * 7919 + 1);

  // Outages over the arrival span: one window, sometimes permanent; a second
  // one either after the first ends or, with 3+ GPUs, overlapping it on
  // another GPU.
  const double span = c.trace.requests.back().arrival_ms + base;
  GpuOutage first;
  first.gpu = static_cast<int>(rng.uniform_int(0, gpus - 1));
  first.from_ms = span * rng.uniform(0.05, 0.6);
  first.to_ms = rng.flip(0.1) ? kInf : first.from_ms + span * rng.uniform(0.05, 0.35);
  o.outages.push_back(first);
  if (rng.flip(0.5)) {
    GpuOutage second;
    const bool overlap = gpus >= 3 && rng.flip(0.5);
    if (overlap || std::isfinite(first.to_ms)) {
      second.gpu = static_cast<int>(rng.uniform_int(0, gpus - 1));
      if (overlap && second.gpu == first.gpu) second.gpu = (first.gpu + 1) % gpus;
      second.from_ms = overlap ? first.from_ms + span * rng.uniform(0.0, 0.1)
                               : first.to_ms + span * rng.uniform(0.0, 0.2);
      second.to_ms = second.from_ms + span * rng.uniform(0.05, 0.3);
      o.outages.push_back(second);
    }
  }
  o.retry_backoff_ms = base * rng.uniform(0.0, 0.5);
  o.health.probe_backoff_ms = span * rng.uniform(0.005, 0.05);
  o.health.probe_max_backoff_ms = o.health.probe_backoff_ms * rng.uniform(1.0, 8.0);
  return c;
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything one run exposes, as text.
std::string serve_text(const Case& c) {
  Server server(c.options);
  for (const auto& [name, model] : zoo()) server.register_model(name, model);
  std::ostringstream out;
  ServeReport report;
  try {
    report = server.run_trace(c.trace);
  } catch (const Error& e) {
    // Pinned as observed: the message without its source location, so the
    // digest does not move with line numbers or checkout paths.
    const std::string what = e.what();
    const std::size_t cut = what.find("— ");
    out << "run_trace threw: " << (cut == std::string::npos ? what : what.substr(cut)) << '\n';
  }
  for (const Response& r : report.responses) {
    out << r.id << ' ' << verdict_name(r.verdict) << ' ' << r.lane << ' ' << r.concurrency
        << ' ' << g17(r.queue_ms) << ' ' << g17(r.start_ms) << ' ' << g17(r.finish_ms) << ' '
        << g17(r.latency_ms) << ' ' << g17(r.base_ms) << ' ' << g17(r.contention_scale) << ' '
        << r.recovered << ' ' << r.attempts << ' ' << r.hedged << ' ' << r.hedge_won << ' '
        << r.topo_mask << ' ' << r.error << ' ' << r.outputs.size() << '\n';
  }
  out << g17(report.makespan_ms) << ' ' << g17(report.throughput_rps) << '\n';
  out << server.metrics().to_json().dump() << '\n';

  const HealthTracker& h = server.health();
  for (int g = 0; g < h.num_gpus(); ++g) {
    out << health_state_name(h.gpu_state(g)) << ' ' << g17(h.next_probe_ms(g)) << '\n';
  }
  out << h.up_mask() << ' ' << h.generation() << ' ' << h.transitions().size() << '\n';
  for (const HealthTracker::Transition& t : h.transitions()) {
    out << t.gpu << ' ' << health_state_name(t.from) << ' ' << health_state_name(t.to) << ' '
        << g17(t.at_ms) << '\n';
  }
  return out.str();
}

std::string fnv1a_hex(const std::string& text) {
  uint64_t h = 14695981039346656037ULL;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string describe(const Case& c) {
  std::ostringstream out;
  out << c.options.platform.num_gpus << " GPUs x " << c.options.slots_per_gpu << " slots, "
      << c.options.algorithm << ", " << c.trace.requests.size() << " requests, "
      << c.options.outages.size() << " outage(s)";
  return out.str();
}

TEST(ServeDigest, SeededTracesMatchGolden) {
  Json digests = Json::array();
  std::vector<Case> cases;
  for (int k = 0; k < kTraces; ++k) {
    cases.push_back(make_case(static_cast<uint64_t>(k)));
    digests.push_back(fnv1a_hex(serve_text(cases.back())));
  }
  Json actual = Json::object();
  actual["traces"] = kTraces;
  actual["digests"] = digests;

  Json golden;
  {
    std::ifstream in(HIOS_GOLDEN_DIR "/serve_digest.json");
    std::stringstream text;
    text << in.rdbuf();
    if (in) golden = Json::parse(text.str());
  }
  if (!golden.is_object() || !(golden.at("digests") == digests)) {
    std::ofstream("serve_digest.actual.json") << actual.dump(true) << '\n';
  }
  ASSERT_TRUE(golden.is_object()) << "cannot read " HIOS_GOLDEN_DIR "/serve_digest.json; "
                                  << "computed digests written to serve_digest.actual.json";
  const Json::Array& want = golden.at("digests").as_array();
  ASSERT_EQ(want.size(), digests.size()) << "golden lists a different number of traces";
  for (int k = 0; k < kTraces; ++k) {
    const std::string got = digests.as_array()[static_cast<std::size_t>(k)].as_string();
    ASSERT_EQ(want[static_cast<std::size_t>(k)].as_string(), got)
        << "first differing trace: seed " << k << " (" << describe(cases[k])
        << "); computed digests written to serve_digest.actual.json";
  }
}

}  // namespace
}  // namespace hios::serve
