// Unit tests of the serving building blocks: bounded queue, contention
// scale, schedule cache, metrics conservation, and virtual-time admission.
#include <gtest/gtest.h>

#include <thread>

#include "cost/cost_model.h"
#include "fault/fault_plan.h"
#include "models/examples.h"
#include "models/inception.h"
#include "serve/metrics.h"
#include "serve/queue.h"
#include "serve/server.h"

namespace hios::serve {
namespace {

ops::Model tiny_model(const std::string& name = "tiny") {
  using namespace ops;
  Model m(name);
  const OpId in = m.add_input("x", TensorShape{1, 4, 8, 8});
  const OpId c1 = m.add_op(Op(OpKind::kConv2d, "c1", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  const OpId c2 = m.add_op(Op(OpKind::kConv2d, "c2", Conv2dAttr{4, 3, 3, 1, 1, 1, 1, 1}), {in});
  m.add_op(Op(OpKind::kConcat, "cat"), {c1, c2});
  return m;
}

TEST(BoundedQueue, RejectsWhenFullAndDrainsWhenClosed) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  EXPECT_EQ(q.high_watermark(), 2u);
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed
  EXPECT_EQ(q.pop(), 1);        // closed queues still drain
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, FailedTryPushLeavesValueIntact) {
  BoundedQueue<std::string> q(1);
  std::string a = "first", b = "second";
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_FALSE(q.try_push(std::move(b)));
  EXPECT_EQ(b, "second");  // rejected value still usable by the caller
}

TEST(BoundedQueue, BlockingPushWaitsForSpace) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.try_push(1));
  std::thread t([&] { EXPECT_TRUE(q.push(2)); });
  EXPECT_EQ(q.pop(), 1);  // frees the slot the pusher is waiting on
  t.join();
  EXPECT_EQ(q.pop(), 2);
}

TEST(ContentionScale, MatchesMalleableTaskFormula) {
  const double kappa = 0.12;
  // Under saturation (k*r <= 1) concurrent requests are free.
  EXPECT_DOUBLE_EQ(stream_contention_scale(1, 0.2, kappa), 1.0);
  EXPECT_DOUBLE_EQ(stream_contention_scale(4, 0.2, kappa), 1.0);
  // Beyond saturation: k*r work through a unit-speed GPU + kappa penalty.
  const double expected6 = 6 * 0.2 * (1.0 + kappa * (6 * 0.2 - 1.0));
  EXPECT_DOUBLE_EQ(stream_contention_scale(6, 0.2, kappa), expected6);
  // Monotone in concurrency.
  EXPECT_LE(stream_contention_scale(5, 0.2, kappa),
            stream_contention_scale(6, 0.2, kappa));
}

TEST(ScheduleCache, SecondLookupIsAHit) {
  ScheduleCache cache(cost::make_a40_server(2));
  const ops::Model m = tiny_model();
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  CacheOutcome outcome = CacheOutcome::kHit;
  auto cold = cache.get(m, "hios-lp", config, {}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  auto warm = cache.get(m, "hios-lp", config, {}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(cold.get(), warm.get());  // same immutable plan
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GT(cold->latency_ms, 0.0);
}

TEST(ScheduleCache, KeyDistinguishesConfigAndStructure) {
  ScheduleCache cache(cost::make_a40_server(4));
  const ops::Model m = tiny_model();
  sched::SchedulerConfig two, four;
  two.num_gpus = 2;
  four.num_gpus = 4;
  cache.get(m, "hios-lp", two);
  cache.get(m, "hios-lp", four);       // different nGPU -> new entry
  cache.get(m, "hios-mr", two);        // different algorithm -> new entry
  const ops::Model renamed = tiny_model("other");  // same structure, new name
  CacheOutcome outcome = CacheOutcome::kMiss;
  cache.get(renamed, "hios-lp", two, {}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);  // fingerprint ignores the name
  EXPECT_EQ(cache.size(), 3u);
}

// Every SchedulerConfig field changes what a scheduler may produce, so the
// key must cover all of them: a one-stream lookup after a default one is a
// miss and returns the one-stream plan, not the merged one.
TEST(ScheduleCache, KeyCoversEverySchedulerConfigField) {
  ScheduleCache cache(cost::make_a40_server(2));
  models::InceptionV3Options small;
  small.image_hw = 96;
  small.channel_scale = 4;
  const ops::Model m = models::make_inception_v3(small);
  sched::SchedulerConfig config;
  config.num_gpus = 2;
  const auto wide = cache.get(m, "hios-lp", config);
  bool merged = false;
  for (const auto& stages : wide->schedule.gpus)
    for (const sched::Stage& stage : stages) merged = merged || stage.ops.size() > 1;
  ASSERT_TRUE(merged) << "the default plan must use a multi-op stage";

  sched::SchedulerConfig one_stream = config;
  one_stream.max_streams = 1;
  CacheOutcome outcome = CacheOutcome::kHit;
  const auto serial = cache.get(m, "hios-lp", one_stream, {}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  const auto direct = sched::make_scheduler("hios-lp")->schedule(
      serial->profiled.graph, *serial->profiled.cost, one_stream);
  EXPECT_EQ(serial->latency_ms, direct.latency_ms);
  for (const auto& stages : serial->schedule.gpus)
    for (const sched::Stage& stage : stages) EXPECT_EQ(stage.ops.size(), 1u);

  // One new entry per remaining field; repeating a lookup hits.
  std::vector<sched::SchedulerConfig> variants(4, config);
  variants[0].window = 3;
  variants[1].ios_max_stage_ops = 2;
  variants[2].ios_frontier_cap = 5;
  variants[3].ios_beam_width = 8;
  for (const sched::SchedulerConfig& variant : variants) {
    cache.get(m, "hios-lp", variant, {}, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::kMiss);
    cache.get(m, "hios-lp", variant, {}, &outcome);
    EXPECT_EQ(outcome, CacheOutcome::kHit);
  }
  EXPECT_EQ(cache.size(), 6u);
}

TEST(ScheduleCache, TopologyMaskKeysSurvivorPlans) {
  ScheduleCache cache(cost::make_a40_server(4));
  const ops::Model m = tiny_model();
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  CacheOutcome outcome = CacheOutcome::kHit;
  auto full = cache.get(m, "hios-lp", config, {}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_EQ(full->topo_mask, kFullMask);
  EXPECT_EQ(full->gpus, (std::vector<int>{0, 1, 2, 3}));

  // A survivor mask builds (and caches) a distinct plan on fewer GPUs.
  auto degraded = cache.get(m, "hios-lp", config, TopologyVersion{0b0111u}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_EQ(degraded->topo_mask, 0b0111u);
  EXPECT_EQ(degraded->gpus, (std::vector<int>{0, 1, 2}));
  EXPECT_NE(degraded.get(), full.get());
  cache.get(m, "hios-lp", config, TopologyVersion{0b0111u}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);

  // The default TopologyVersion is exactly the full-mask entry, and an
  // explicit all-up mask normalises onto it regardless of how it is spelled.
  auto again = cache.get(m, "hios-lp", config, {}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(again.get(), full.get());
  cache.get(m, "hios-lp", config, TopologyVersion{0b1111u}, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);

  EXPECT_THROW(cache.get(m, "hios-lp", config, TopologyVersion{0u}), Error);
}

TEST(PlanPool, PrewarmMakesDegradedLookupsWarm) {
  ScheduleCache cache(cost::make_a40_server(4));
  sched::SchedulerConfig config;
  config.num_gpus = 4;
  PlanPool pool(cache, "hios-lp", config);
  const ops::Model m = tiny_model();

  // Prewarm builds the full plan + every single-GPU-down survivor set.
  EXPECT_EQ(pool.prewarm(m, kFullMask), 5u);
  EXPECT_EQ(cache.misses(), 5u);

  CacheOutcome outcome = CacheOutcome::kMiss;
  auto plan = pool.plan_for(m, 0b1011u, &outcome);  // GPU 2 down
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(plan->gpus, (std::vector<int>{0, 1, 3}));

  // A mask prewarm did not cover (two GPUs down) is cold exactly once.
  pool.plan_for(m, 0b0011u, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  pool.plan_for(m, 0b0011u, &outcome);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.misses(), 6u);

  // Re-prewarming an already-warm pool performs no builds.
  EXPECT_EQ(pool.prewarm(m, kFullMask), 0u);
  EXPECT_EQ(cache.misses(), 6u);
}

// A prewarm that finds every mask warm builds nothing and moves no cache
// counter; a partly warm one builds exactly the cold masks.
TEST(PlanPool, WarmPrewarmMovesNoCacheCounter) {
  ScheduleCache cache(cost::make_a40_server(3));
  sched::SchedulerConfig config;
  config.num_gpus = 3;
  PlanPool pool(cache, "hios-mr", config);
  const ops::Model m = tiny_model();

  const uint32_t masks[] = {kFullMask, 0b011u, 0b101u, 0b110u};
  EXPECT_EQ(cache.cold_masks(m, "hios-mr", config, masks).size(), 4u);
  cache.get(m, "hios-mr", config, TopologyVersion{0b011u});
  EXPECT_EQ(cache.cold_masks(m, "hios-mr", config, masks),
            (std::vector<uint32_t>{kFullMask, 0b101u, 0b110u}));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);

  EXPECT_EQ(pool.prewarm(m, 0b111u), 3u);
  const std::size_t hits = cache.hits(), misses = cache.misses();
  EXPECT_EQ(misses, 4u);
  EXPECT_EQ(pool.prewarm(m, 0b111u), 0u);
  EXPECT_EQ(pool.prewarm(m, kFullMask), 0u);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_THROW(pool.prewarm(m, kFullMask, 1), Error) << "the third argument must be 0";
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.coalesced(), 0u);
}

TEST(ServerOptions, ValidateRejectsBadFields) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  EXPECT_NO_THROW(opt.validate());

  auto expect_invalid = [&](auto mutate) {
    ServerOptions bad = opt;
    mutate(bad);
    EXPECT_THROW(bad.validate(), Error);
  };
  expect_invalid([](ServerOptions& o) { o.slots_per_gpu = 0; });
  expect_invalid([](ServerOptions& o) { o.slots_per_gpu = 1 << 20; });
  expect_invalid([](ServerOptions& o) { o.slots_per_gpu = 257; });
  ServerOptions widest = opt;
  widest.slots_per_gpu = 256;
  EXPECT_NO_THROW(widest.validate());
  expect_invalid([](ServerOptions& o) { o.queue_capacity = 0; });
  expect_invalid([](ServerOptions& o) { o.platform.name.clear(); });
  expect_invalid([](ServerOptions& o) { o.algorithm.clear(); });
  expect_invalid([](ServerOptions& o) { o.retry_backoff_ms = -1.0; });
  expect_invalid([](ServerOptions& o) { o.health.probe_backoff_ms = 0.0; });
}

TEST(Metrics, DegradedModeCountersConserve) {
  Metrics m;
  for (int i = 0; i < 4; ++i) m.on_submitted();
  m.on_breaker_rejected();
  for (int i = 0; i < 3; ++i) m.on_admitted(1);
  m.on_completed(5.0, 0.5);
  m.on_completed(6.0, 0.5);
  m.on_failed(false);
  m.on_retried();
  m.on_hedged();
  m.on_hedge_won();
  m.on_pool_result(CacheOutcome::kHit);
  m.on_pool_result(CacheOutcome::kMiss);
  m.on_pool_result(CacheOutcome::kCoalesced);  // did not pay the build: a hit
  m.on_pool_prewarm(3);
  m.on_health_transition();
  m.on_probe(true);
  m.on_probe(false);

  const Metrics::Snapshot s = m.snapshot();
  EXPECT_TRUE(s.conserved()) << "submitted = admitted + rejected + breaker_rejected";
  EXPECT_EQ(s.breaker_rejected, 1);
  EXPECT_EQ(s.retried, 1);
  EXPECT_EQ(s.hedged, 1);
  EXPECT_EQ(s.hedge_won, 1);
  EXPECT_EQ(s.pool_hits, 2);
  EXPECT_EQ(s.pool_misses, 1);
  EXPECT_EQ(s.pool_prewarm_builds, 3);
  EXPECT_EQ(s.health_transitions, 1);
  EXPECT_EQ(s.probes_sent, 2);
  EXPECT_EQ(s.probes_succeeded, 1);

  const std::string dump = m.to_json().dump();
  EXPECT_NE(dump.find("\"breaker_rejected\":1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"plan_pool\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"health\""), std::string::npos) << dump;

  // hedge_won > hedged is a broken invariant, not a countable state.
  Metrics broken;
  broken.on_hedge_won();
  EXPECT_FALSE(broken.snapshot().conserved());
}

TEST(Metrics, ConservationAndJson) {
  Metrics m;
  m.set_queue_capacity(8);
  for (int i = 0; i < 5; ++i) m.on_submitted();
  m.on_rejected();
  for (int i = 0; i < 4; ++i) m.on_admitted(1);
  m.on_completed(10.0, 1.0);
  m.on_completed(20.0, 2.0);
  m.on_dropped();
  m.on_failed(/*watchdog_fired=*/true);
  m.set_makespan(100.0);
  const Metrics::Snapshot s = m.snapshot();
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.watchdog_fires, 1);
  EXPECT_DOUBLE_EQ(s.latency.mean, 15.0);
  EXPECT_DOUBLE_EQ(s.throughput_rps(), 2 / 0.1);
  const std::string dump = m.to_json().dump();
  EXPECT_NE(dump.find("\"completed\":2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"watchdog_fires\":1"), std::string::npos) << dump;

  Metrics unbalanced;
  unbalanced.on_submitted();
  EXPECT_FALSE(unbalanced.snapshot().conserved());
}

ServerOptions sim_options(int num_gpus, int slots) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(num_gpus);
  opt.slots_per_gpu = slots;
  opt.use_engine = false;  // virtual-time only: admission-logic tests
  return opt;
}

TEST(Server, SaturationTraceKeepsLanesBusy) {
  Server server(sim_options(2, 2));
  server.register_model("tiny", tiny_model());
  TraceParams params;
  params.models = {"tiny"};
  params.num_requests = 8;  // all arrive at t = 0
  const ServeReport report = server.run_trace(Trace::random(params, 7));
  ASSERT_EQ(report.responses.size(), 8u);
  const double base = report.responses[0].base_ms;
  ASSERT_GT(base, 0.0);
  for (const Response& r : report.responses) {
    EXPECT_EQ(r.verdict, Verdict::kCompleted);
    EXPECT_DOUBLE_EQ(r.base_ms, base);
    EXPECT_DOUBLE_EQ(r.contention_scale, 1.0);  // 2 slots * 0.2 demand < 1
  }
  // Two lanes, eight equal requests arriving together: 4 rounds.
  EXPECT_DOUBLE_EQ(report.makespan_ms, 4 * base);
  EXPECT_DOUBLE_EQ(report.throughput_rps, 8 / (4 * base / 1000.0));
}

TEST(Server, FullQueueRejectsAndDeadlinesDrop) {
  ServerOptions opt = sim_options(2, 1);
  opt.queue_capacity = 2;
  Server server(opt);
  server.register_model("tiny", tiny_model());
  Trace trace;
  // 5 requests at t = 0 on one lane with capacity 2: the first dispatches
  // immediately, two queue, two bounce.
  for (int i = 0; i < 5; ++i) trace.requests.push_back({i, "tiny", 0.0, kNoDeadline});
  // A late request with an impossible deadline is admitted then dropped.
  trace.requests.push_back({5, "tiny", 1000.0, 1000.0});
  const ServeReport report = server.run_trace(trace);
  int completed = 0, rejected = 0, dropped = 0;
  for (const Response& r : report.responses) {
    completed += r.verdict == Verdict::kCompleted;
    rejected += r.verdict == Verdict::kRejected;
    dropped += r.verdict == Verdict::kDropped;
  }
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(dropped, 1);
  const Metrics::Snapshot s = server.metrics().snapshot();
  EXPECT_TRUE(s.conserved());
  EXPECT_EQ(s.queue_high_watermark, 2u);
}

TEST(Server, ContentionSlowsOverloadedLanes) {
  // 8 slots on one GPU, demand 0.2: 8 overlapping requests need 1.6 GPUs
  // of work, so overlapped requests must run slower than solo ones.
  ServerOptions opt = sim_options(1, 8);
  Server server(opt);
  server.register_model("tiny", tiny_model());
  TraceParams params;
  params.models = {"tiny"};
  params.num_requests = 8;
  const ServeReport report = server.run_trace(Trace::random(params, 3));
  double max_scale = 0.0;
  for (const Response& r : report.responses) {
    EXPECT_EQ(r.verdict, Verdict::kCompleted);
    max_scale = std::max(max_scale, r.contention_scale);
  }
  const double kappa = opt.platform.gpu.contention_kappa;
  EXPECT_DOUBLE_EQ(max_scale, stream_contention_scale(8, 0.2, kappa));
  EXPECT_GT(max_scale, 1.0);
}

TEST(Server, EngineModeProducesTensorsAndTimeline) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 2;
  Server server(opt);  // use_engine = true
  server.register_model("tiny", tiny_model());
  TraceParams params;
  params.models = {"tiny"};
  params.num_requests = 4;
  const ServeReport report = server.run_trace(Trace::random(params, 11));
  for (const Response& r : report.responses) {
    ASSERT_EQ(r.verdict, Verdict::kCompleted);
    EXPECT_FALSE(r.outputs.empty());  // real tensors came back
  }
  EXPECT_FALSE(report.timeline.events.empty());
  EXPECT_GE(report.timeline.latency_ms, report.makespan_ms - 1e-9);
}

TEST(Server, OnlineSubmitFulfilsFutures) {
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 2;
  Server server(opt);
  server.register_model("tiny", tiny_model());
  server.start();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.submit({i, "tiny", 0.0, kNoDeadline}));
  server.drain();
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.verdict, Verdict::kCompleted);
    EXPECT_FALSE(r.outputs.empty());
  }
  EXPECT_TRUE(server.metrics().snapshot().conserved());
}

TEST(Server, UnknownModelFailsTheRequestNotTheServer) {
  Server server(sim_options(2, 1));
  server.register_model("tiny", tiny_model());
  server.start();
  auto f = server.submit({0, "nope", 0.0, kNoDeadline});
  server.drain();
  const Response r = f.get();
  EXPECT_EQ(r.verdict, Verdict::kFailed);
  EXPECT_NE(r.error.find("unknown model"), std::string::npos);
  EXPECT_TRUE(server.metrics().snapshot().conserved());
}

TEST(Server, OnlineDropsUnmeetableDeadlineWithoutExecuting) {
  // Every engine run of this plan hits the fail-stop and counts one
  // failover, so the failover counter is the number of engine runs.
  fault::FaultPlan plan;
  plan.fail_stops.push_back(fault::FailStop{0, 0.0});
  ServerOptions opt;
  opt.platform = cost::make_a40_server(2);
  opt.slots_per_gpu = 1;
  opt.faults = &plan;
  Server server(opt);
  server.register_model("tiny", tiny_model());
  server.start();
  auto missed = server.submit({0, "tiny", 0.0, 1e-9});
  auto served = server.submit({1, "tiny", 0.0, kNoDeadline});
  server.drain();

  const Response ok = served.get();
  EXPECT_EQ(ok.verdict, Verdict::kCompleted);
  EXPECT_FALSE(ok.outputs.empty());
  const Response r = missed.get();
  EXPECT_EQ(r.verdict, Verdict::kDropped);
  EXPECT_TRUE(r.outputs.empty()) << "a dropped request must never execute";
  EXPECT_GT(r.base_ms, 0.0);
  const Metrics::Snapshot s = server.metrics().snapshot();
  EXPECT_EQ(s.failovers, 1) << "the engine ran for the dropped request";
  EXPECT_EQ(s.dropped, 1);
  EXPECT_TRUE(s.conserved());
}

TEST(Server, OnlineLanesMatchTheTraceDriver) {
  // One lane, no faults, a queue that never fills: submitting in (arrival,
  // id) order must reproduce run_trace's virtual timeline field for field.
  ServerOptions opt = sim_options(2, 1);
  opt.queue_capacity = 64;
  double base = 0.0;
  {
    Server probe(opt);
    probe.register_model("tiny", tiny_model());
    Trace one;
    one.requests.push_back({0, "tiny", 0.0, kNoDeadline});
    base = probe.run_trace(one).responses[0].base_ms;
  }
  ASSERT_GT(base, 0.0);
  Trace trace;
  for (int i = 0; i < 32; ++i) {
    // Arrivals outpace the lane, so queueing builds up; every fourth
    // deadline is unmeetable, every fourth is met only while the queue is short.
    double deadline = kNoDeadline;
    const double arrival = 0.5 * base * (i / 2);
    if (i % 4 == 1) deadline = arrival + 1e-9;
    if (i % 4 == 2) deadline = arrival + 3.0 * base;
    trace.requests.push_back({i, "tiny", arrival, deadline});
  }

  Server offline(opt);
  offline.register_model("tiny", tiny_model());
  const ServeReport report = offline.run_trace(trace);

  Server online(opt);
  online.register_model("tiny", tiny_model());
  online.start();
  std::vector<std::future<Response>> futures;
  for (const Request& r : trace.requests) futures.push_back(online.submit(r));
  online.drain();

  ASSERT_EQ(report.responses.size(), futures.size());
  int dropped = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response x = futures[i].get();
    const Response& y = report.responses[i];
    SCOPED_TRACE("request " + std::to_string(y.id));
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.verdict, y.verdict);
    EXPECT_EQ(x.lane, y.lane);
    EXPECT_EQ(x.concurrency, y.concurrency);
    EXPECT_EQ(x.queue_ms, y.queue_ms);
    EXPECT_EQ(x.start_ms, y.start_ms);
    EXPECT_EQ(x.finish_ms, y.finish_ms);
    EXPECT_EQ(x.latency_ms, y.latency_ms);
    EXPECT_EQ(x.base_ms, y.base_ms);
    EXPECT_EQ(x.contention_scale, y.contention_scale);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.topo_mask, y.topo_mask);
    dropped += y.verdict == Verdict::kDropped;
  }
  EXPECT_GT(dropped, 8) << "the trace must exercise deadline drops";
  EXPECT_GT(report.responses.back().queue_ms, 0.0);
  const Metrics::Snapshot a = offline.metrics().snapshot();
  const Metrics::Snapshot b = online.metrics().snapshot();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_TRUE(b.conserved());
}

TEST(Server, RunTraceRefusesWhileOnlineLanesRun) {
  Server server(sim_options(2, 1));
  server.register_model("tiny", tiny_model());
  Trace trace;
  trace.requests.push_back({0, "tiny", 0.0, kNoDeadline});
  server.start();
  EXPECT_THROW(server.run_trace(trace), Error);
  server.drain();
  EXPECT_EQ(server.run_trace(trace).responses.at(0).verdict, Verdict::kCompleted);
}

// Regression (the shape of serve_digest seed 195): back-to-back outages on
// the two GPUs of a 2-GPU server. GPU 0 is back when GPU 1 fails, but stays
// Down until its probe succeeds, so for a while no GPU is up. run_trace
// used to throw then (the plan pool was asked for survivor mask 0) and lost
// the whole trace. Requests that arrive or retry meanwhile now wait for the
// probe without spending a retry, through the breaker too.
TEST(Server, BackToBackOutagesOnBothGpusWaitForTheProbe) {
  ServerOptions opt = sim_options(2, 1);
  opt.outages = {{.gpu = 0, .from_ms = 10.0, .to_ms = 20.0},
                 {.gpu = 1, .from_ms = 20.0, .to_ms = 40.0}};
  opt.health.probe_backoff_ms = 30.0;
  opt.health.probe_max_backoff_ms = 30.0;
  Trace trace;
  for (int i = 0; i < 60; ++i) {
    const double at = static_cast<double>(i);
    trace.requests.push_back({i, "tiny", at, at + 1000.0});
  }

  Server server(opt);
  server.register_model("tiny", tiny_model());
  ServeReport report;
  ASSERT_NO_THROW(report = server.run_trace(trace));
  ASSERT_EQ(report.responses.size(), trace.requests.size());
  EXPECT_TRUE(server.metrics().snapshot().conserved());

  // Replay the transitions: when did both GPUs leave the serving set, and
  // when did the first come back?
  double all_down = -1.0, back_up = -1.0;
  std::vector<bool> up(2, true);
  for (const HealthTracker::Transition& t : server.health().transitions()) {
    up[static_cast<std::size_t>(t.gpu)] = t.to == HealthState::kHealthy;
    if (all_down < 0.0 && !up[0] && !up[1]) all_down = t.at_ms;
    if (all_down >= 0.0 && back_up < 0.0 && (up[0] || up[1])) back_up = t.at_ms;
  }
  ASSERT_GE(all_down, 20.0) << "the trace must reach a state with no GPU up";
  ASSERT_GT(back_up, all_down);

  int waited = 0;
  for (const Response& r : report.responses) {
    EXPECT_NE(r.topo_mask, 0u) << "request " << r.id;
    if (r.verdict == Verdict::kCompleted) {
      EXPECT_FALSE(r.start_ms >= all_down && r.start_ms < back_up)
          << "request " << r.id << " ran while no GPU was up";
    }
    const double arrival = trace.requests[static_cast<std::size_t>(r.id)].arrival_ms;
    if (arrival > all_down && arrival < back_up) {
      ++waited;
      EXPECT_EQ(r.verdict, Verdict::kCompleted) << "request " << r.id;
      EXPECT_EQ(r.attempts, 1) << "waiting for the probe spends no retry";
      EXPECT_GE(r.start_ms, back_up) << "request " << r.id;
    }
  }
  EXPECT_GT(waited, 0);
}

}  // namespace
}  // namespace hios::serve
