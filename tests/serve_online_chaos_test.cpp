// Online chaos soak (label: chaos, run under ASan + TSan in CI): the
// start()/submit()/drain() lanes serve a trace while a server-time outage
// kills GPU 1 and probes bring it back, with hedging, the circuit breaker
// and deadlines all on. The online lanes share run_trace's Dispatcher, so
// the degraded-mode contract of DESIGN.md §6f must hold here too:
//   * every future resolves exactly once,
//   * the per-verdict tallies equal the Metrics counters and conserve,
//   * outage victims retry, and no request pays a cold survivor plan.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "models/examples.h"
#include "serve/server.h"

namespace hios::serve {
namespace {

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

TEST(ServeOnlineChaos, OutageHedgeBreakerDeadlinesConserve) {
  constexpr int kRequests = 64;
  constexpr int kSubmitters = 2;
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 6;  // enough lanes for contention to vary and trip hedges
  opt.queue_capacity = 64;
  opt.hedge_multiplier = 1.0;

  TraceParams params;
  params.models = {"branchy"};
  params.num_requests = kRequests;
  params.mean_interarrival_ms = 0.02;
  Trace trace = Trace::random(params, 2027);

  // Calibrate the fault-free virtual makespan so the outage window, the
  // deadlines and the backoffs scale with the model.
  double makespan = 0.0;
  {
    ServerOptions calib = opt;
    calib.use_engine = false;
    Server server(calib);
    server.register_model("branchy", branchy_model());
    makespan = server.run_trace(trace).makespan_ms;
  }
  ASSERT_GT(makespan, 0.0);
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    Request& r = trace.requests[i];
    if (i % 4 == 3) r.deadline_ms = r.arrival_ms + 0.5 * makespan;
    if (i % 8 == 5) r.deadline_ms = r.arrival_ms + 1e-9;  // dropped, or shed while degraded
  }
  opt.outages.push_back(GpuOutage{1, 0.25 * makespan, 0.45 * makespan});
  opt.retry_backoff_ms = 0.01 * makespan;
  opt.health.probe_backoff_ms = 0.02 * makespan;
  opt.health.probe_max_backoff_ms = 0.08 * makespan;

  Server server(opt);
  server.register_model("branchy", branchy_model());
  server.start();
  // Two phases of racing submitters: everything arriving before the outage
  // ends first (so a victim surfaces), then the rest, which meets a
  // degraded server whose breaker sheds the unmeetable deadlines.
  std::vector<std::future<Response>> futures(trace.requests.size());
  auto submit_range = [&](std::size_t from, std::size_t to) {
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&, s] {
        for (std::size_t i = from + static_cast<std::size_t>(s); i < to; i += kSubmitters) {
          futures[i] = server.submit(trace.requests[i]);
        }
      });
    }
    for (auto& t : submitters) t.join();
  };
  std::size_t split = 0;
  while (split < trace.requests.size() &&
         trace.requests[split].arrival_ms < 0.3 * makespan) {
    ++split;
  }
  submit_range(0, split);
  for (std::size_t i = 0; i < split; ++i) futures[i].wait();
  submit_range(split, trace.requests.size());
  server.drain();

  std::set<RequestId> ids;
  std::map<Verdict, int64_t> tally;
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "a future never resolved: request lost";
    const Response r = f.get();
    EXPECT_FALSE(f.valid()) << "a future must resolve exactly once";
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate response id " << r.id;
    ++tally[r.verdict];
    if (r.verdict == Verdict::kCompleted) {
      EXPECT_FALSE(r.outputs.empty());
    }
    if (r.verdict == Verdict::kDropped) {
      EXPECT_TRUE(r.outputs.empty());
    }
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kRequests));

  const Metrics::Snapshot s = server.metrics().snapshot();
  EXPECT_EQ(tally[Verdict::kCompleted], s.completed);
  EXPECT_EQ(tally[Verdict::kRejected], s.rejected);
  EXPECT_EQ(tally[Verdict::kDropped], s.dropped);
  EXPECT_EQ(tally[Verdict::kFailed], s.failed);
  EXPECT_EQ(tally[Verdict::kBreakerRejected], s.breaker_rejected);
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_TRUE(s.conserved()) << "submitted=" << s.submitted << " admitted=" << s.admitted
                             << " breaker_rejected=" << s.breaker_rejected;
  EXPECT_LE(s.hedge_won, s.hedged);
  EXPECT_GT(s.retried, 0) << "outage victims must retry";
  EXPECT_GE(s.health_transitions, 1);
  EXPECT_EQ(s.pool_misses, 0) << "survivor plans must come prewarmed";
  EXPECT_EQ(s.watchdog_fires, 0);
  EXPECT_GT(s.completed, 0);
}

}  // namespace
}  // namespace hios::serve
