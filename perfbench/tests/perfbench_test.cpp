// Unit tests for the benchmark's own pieces: the counting decorator, the
// percentile and sample-count rule, the serving conservation checks, and
// span self times.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "checks.h"
#include "cost/stage_cache.h"
#include "cost/table_model.h"
#include "counting_model.h"
#include "models/random_dag.h"
#include "sched/scheduler.h"
#include "span.h"
#include "stats.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using hios::graph::NodeId;

hios::graph::Graph small_dag(uint64_t seed = 3) {
  hios::models::RandomDagParams p;
  p.num_ops = 64;
  p.num_layers = 8;
  p.num_deps = 128;
  p.seed = seed;
  return hios::models::random_dag(p);
}

// --- counting decorator ---------------------------------------------------------

TEST(CountingModel, ForwardsValuesAndCountsDistinctSets) {
  const auto g = small_dag();
  const hios::cost::TableCostModel table;
  const CountingModel counted(table);
  const std::vector<NodeId> ab{1, 2}, ba{2, 1}, c{3};
  EXPECT_EQ(counted.stage_time(g, ab), table.stage_time(g, ab));
  EXPECT_EQ(counted.stage_time(g, ba), table.stage_time(g, ba));
  EXPECT_EQ(counted.stage_time(g, c), table.stage_time(g, c));
  EXPECT_EQ(counted.demand(g, 4), table.demand(g, 4));
  EXPECT_EQ(counted.calls(), 3);
  EXPECT_EQ(counted.distinct(), 2);  // {1,2} and {2,1} are one set
}

TEST(CountingModel, CallsOnlyWhenDistinctIsOff) {
  const auto g = small_dag();
  const hios::cost::TableCostModel table;
  const CountingModel counted(table, nullptr, /*track_distinct=*/false);
  const std::vector<NodeId> ab{1, 2};
  counted.stage_time(g, ab);
  counted.stage_time(g, ab);
  EXPECT_EQ(counted.calls(), 2);
  EXPECT_EQ(counted.distinct(), 0);
}

TEST(CountingModel, ExactUnderConcurrentCallers) {
  const auto g = small_dag();
  const hios::cost::TableCostModel table;
  const CountingModel counted(table);
  constexpr int kThreads = 4, kSets = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSets; ++i) {
        const std::vector<NodeId> s{static_cast<NodeId>(i % 60), 61};
        counted.stage_time(g, s);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counted.calls(), kThreads * kSets);
  EXPECT_EQ(counted.distinct(), 60);
}

TEST(CountingModel, ScheduleUnchangedAndQueriesRepeatable) {
  // Wrapping the model must not change the schedule, and the distinct
  // query count must repeat exactly at a fixed pool size.
  const auto g = small_dag(5);
  const hios::cost::TableCostModel table;
  hios::sched::SchedulerConfig config;
  config.num_gpus = 4;
  for (const char* alg : {"inter-lp", "hios-lp", "hios-mr"}) {
    const auto plain = hios::sched::make_scheduler(alg)->schedule(g, table, config);
    for (int threads : {1, 4}) {
      const hios::util::ScopedThreads scoped(threads);
      std::vector<int64_t> distinct;
      for (int rep = 0; rep < 3; ++rep) {
        const CountingModel counted(table);
        const auto r = hios::sched::make_scheduler(alg)->schedule(g, counted, config);
        EXPECT_EQ(r.latency_ms, plain.latency_ms) << alg;
        distinct.push_back(counted.distinct());
      }
      EXPECT_GT(distinct[0], 0);
      EXPECT_EQ(distinct[0], distinct[1]) << alg << " at " << threads << " threads";
      EXPECT_EQ(distinct[0], distinct[2]) << alg << " at " << threads << " threads";
    }
  }
}

TEST(CountingModel, BothSidesOfStageCacheGiveHitRatio) {
  const auto g = small_dag();
  const hios::cost::TableCostModel table;
  const CountingModel below(table);
  const hios::cost::StageTimeCache cache(below);
  const CountingModel above(cache, nullptr, false);
  const std::vector<NodeId> ab{1, 2};
  for (int i = 0; i < 4; ++i) above.stage_time(g, ab);
  EXPECT_EQ(above.calls(), 4);
  EXPECT_EQ(below.calls(), 1);  // three hits, one miss
}

// --- percentile and sample-count rule -------------------------------------------

TEST(Stats, PercentileInterpolatesLinearly) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 90.0), 3.7);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, SampleCountRuleNeedsTenBeyond) {
  EXPECT_EQ(samples_needed(50.0), 1u);
  EXPECT_EQ(samples_needed(90.0), 100u);
  EXPECT_EQ(samples_needed(99.0), 1000u);
  EXPECT_FALSE(percentile_supported(99, 90.0));
  EXPECT_TRUE(percentile_supported(100, 90.0));
  EXPECT_TRUE(percentile_supported(1, 50.0));
  EXPECT_FALSE(percentile_supported(0, 50.0));
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_THROW(geomean({}), std::invalid_argument);
  EXPECT_THROW(geomean({1.0, 0.0}), std::invalid_argument);
}

// --- conservation checks --------------------------------------------------------

hios::Json serve_metrics(int64_t submitted, int64_t admitted, int64_t rejected,
                         int64_t breaker, int64_t completed, int64_t dropped, int64_t failed,
                         int64_t hits, int64_t misses, int64_t coalesced) {
  hios::Json c = hios::Json::object();
  c["submitted"] = submitted;
  c["admitted"] = admitted;
  c["rejected"] = rejected;
  c["breaker_rejected"] = breaker;
  c["completed"] = completed;
  c["dropped"] = dropped;
  c["failed"] = failed;
  hios::Json cache = hios::Json::object();
  cache["hits"] = hits;
  cache["misses"] = misses;
  cache["coalesced"] = coalesced;
  hios::Json j = hios::Json::object();
  j["counters"] = std::move(c);
  j["schedule_cache"] = std::move(cache);
  return j;
}

TEST(Conservation, HoldsOnBalancedCounters) {
  const auto m = serve_metrics(10, 7, 2, 1, 5, 1, 1, 6, 2, 1);
  EXPECT_TRUE(conservation_violations(m, 9).empty());
}

TEST(Conservation, ReportsEachBrokenLaw) {
  EXPECT_EQ(conservation_violations(serve_metrics(11, 7, 2, 1, 5, 1, 1, 6, 2, 1), 9).size(), 1u);
  EXPECT_EQ(conservation_violations(serve_metrics(10, 7, 2, 1, 4, 1, 1, 6, 2, 1), 9).size(), 1u);
  EXPECT_EQ(conservation_violations(serve_metrics(10, 7, 2, 1, 5, 1, 1, 6, 2, 1), 8).size(), 1u);
  EXPECT_EQ(conservation_violations(serve_metrics(11, 7, 2, 1, 4, 1, 1, 6, 2, 1), 8).size(), 3u);
}

TEST(Tally, CountsFailuresAndKeepsMessages) {
  Tally t;
  t.op(true);
  t.check(false, "broken");
  Tally u;
  u.op(false, "also broken");
  t.merge(u);
  EXPECT_EQ(t.attempted(), 3);
  EXPECT_EQ(t.failed(), 2);
  ASSERT_EQ(t.errors().size(), 2u);
  EXPECT_EQ(t.errors()[0], "broken");
}

// --- spans ----------------------------------------------------------------------

TEST(Spans, RecordParentsAndSelfTime) {
  clear_spans();
  set_recording(true);
  {
    const Span outer("outer");
    {
      const Span inner("inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const Span none(nullptr);
  }
  set_recording(false);
  { const Span off("off"); }
  const auto spans = recorded_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  const auto self = self_times(spans);
  EXPECT_GE(spans[1].end_ns - spans[1].start_ns, 5'000'000);
  EXPECT_EQ(self[1], spans[1].end_ns - spans[1].start_ns);
  EXPECT_EQ(self[0], (spans[0].end_ns - spans[0].start_ns) - self[1]);
  clear_spans();
}

}  // namespace
}  // namespace perfbench
