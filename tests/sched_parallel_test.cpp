// Pool-size independence of the schedulers (DESIGN.md §6g).
//
// schedule() searches on the calling thread alone and ignores the global
// pool's size. This suite pins that contract: over 100+ random DAGs,
// HIOS-LP, HIOS-MR, IOS, and the parallelize pass must emit byte-identical
// schedules (serialized form compared as strings), bit-identical latencies,
// and the identical search work (distinct stage queries, candidates tried)
// at 1, 2, 4, and 8 lanes. It also covers what stays concurrent: the
// stage-time cache under several callers and the parallel_for behind
// PlanPool::prewarm. Runs under TSan in CI (label: stress).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cost/stage_cache.h"
#include "cost/table_model.h"
#include "core/experiment.h"
#include "models/random_dag.h"
#include "sched/parallelize_graph.h"
#include "sched/scheduler.h"
#include "util/thread_pool.h"

namespace hios::sched {
namespace {

const cost::TableCostModel kCost;

graph::Graph make_dag(uint64_t seed) {
  models::RandomDagParams p;
  p.num_ops = 6 + static_cast<int>(seed % 25);  // 6..30 ops
  p.num_layers = std::max(2, p.num_ops / 3);
  p.num_deps = p.num_ops * 2;
  p.seed = seed;
  return models::random_dag(p);
}

/// Canonical byte representation of a schedule (op names per stage per
/// GPU), so "byte-identical" is a plain string comparison.
std::string dump(const graph::Graph& g, const Schedule& s) { return s.to_json(g).dump(); }

struct SchedRun {
  std::string schedule;
  double latency = 0.0;
  std::size_t distinct_stages = 0;  ///< stages the search asked the model about
  double measured_ms = 0.0;         ///< their summed times
};

SchedRun run_scheduler(const graph::Graph& g, const std::string& algorithm,
                  const SchedulerConfig& config, int threads) {
  util::ScopedThreads pool(threads);
  const core::CountingCostModel counter(kCost);
  const ScheduleResult r = make_scheduler(algorithm)->schedule(g, counter, config);
  return SchedRun{dump(g, r.schedule), r.latency_ms, counter.distinct_stages(),
                  counter.measured_ms()};
}

// 102 DAGs x {hios-lp, hios-mr, ios}: the 2-, 4- and 8-lane runs must
// reproduce the single-lane schedule byte for byte, its latency bit for
// bit (EXPECT_EQ on doubles is exact equality, not a tolerance), and its
// search work query for query.
TEST(SchedParallel, SchedulersByteIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 1; seed <= 102; ++seed) {
    const graph::Graph g = make_dag(seed);
    SchedulerConfig config;
    config.num_gpus = 2 + static_cast<int>(seed % 3);  // 2..4 GPUs
    config.window = 2 + static_cast<int>(seed % 3);    // 2..4 ops
    for (const char* algorithm : {"hios-lp", "hios-mr", "ios"}) {
      const SchedRun reference = run_scheduler(g, algorithm, config, 1);
      for (int threads : {2, 4, 8}) {
        const SchedRun run = run_scheduler(g, algorithm, config, threads);
        EXPECT_EQ(run.schedule, reference.schedule)
            << algorithm << " seed=" << seed << " threads=" << threads;
        EXPECT_EQ(run.latency, reference.latency)
            << algorithm << " seed=" << seed << " threads=" << threads;
        EXPECT_EQ(run.distinct_stages, reference.distinct_stages)
            << algorithm << " seed=" << seed << " threads=" << threads;
        EXPECT_EQ(run.measured_ms, reference.measured_ms)
            << algorithm << " seed=" << seed << " threads=" << threads;
      }
    }
  }
}

// The parallelize pass alone (driven on an inter-GPU schedule with
// singleton stages): identical merges, identical candidate count, and a
// byte-identical merged schedule at every lane count.
TEST(SchedParallel, ParallelizeByteIdenticalAcrossThreadCounts) {
  for (uint64_t seed = 1; seed <= 102; ++seed) {
    const graph::Graph g = make_dag(seed * 613);
    SchedulerConfig config;
    config.num_gpus = 2 + static_cast<int>(seed % 3);
    const ScheduleResult base = make_scheduler("inter-lp")->schedule(g, kCost, config);
    const int window = 2 + static_cast<int>(seed % 4);  // 2..5 ops

    ParallelizeResult reference;
    {
      util::ScopedThreads pool(1);
      reference = parallelize(g, base.schedule, kCost, window);
    }
    for (int threads : {2, 4, 8}) {
      util::ScopedThreads pool(threads);
      const ParallelizeResult run = parallelize(g, base.schedule, kCost, window);
      EXPECT_EQ(dump(g, run.schedule), dump(g, reference.schedule))
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.latency_ms, reference.latency_ms)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.merges_accepted, reference.merges_accepted)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.candidates_tried, reference.candidates_tried)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

// The stage-time cache must return what the inner model returns, with
// exact hit/miss totals.
TEST(SchedParallel, StageCacheMatchesInnerModel) {
  const graph::Graph g = make_dag(99);
  const cost::StageTimeCache cached(kCost);
  std::vector<graph::NodeId> stage;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes()); ++v) {
    stage.push_back(v);
    const auto span = std::span<const graph::NodeId>(stage);
    const double direct = kCost.stage_time(g, span);
    EXPECT_EQ(cached.stage_time(g, span), direct) << "fill v=" << v;
    EXPECT_EQ(cached.stage_time(g, span), direct) << "hit v=" << v;
  }
  EXPECT_EQ(cached.hits(), g.num_nodes());
  EXPECT_EQ(cached.misses(), g.num_nodes());
}

// Table model whose multi-op stage times take a while to compute, which
// widens the window in which concurrent callers miss on the same stage.
class SlowTableModel final : public cost::CostModel {
 public:
  double stage_time(const graph::Graph& g,
                    std::span<const graph::NodeId> stage) const override {
    if (stage.size() > 1) std::this_thread::sleep_for(std::chrono::microseconds(20));
    return kCost.stage_time(g, stage);
  }
  double demand(const graph::Graph& g, graph::NodeId v) const override {
    return kCost.demand(g, v);
  }
};

// Several threads sharing one cache: every answer is the inner model's,
// every call is counted once, and each distinct stage is filled once.
TEST(SchedParallel, StageCacheExactUnderConcurrentCallers) {
  models::RandomDagParams p;
  p.num_ops = 300;
  p.num_layers = 20;
  p.num_deps = 600;
  const graph::Graph g = models::random_dag(p);
  const auto n = static_cast<graph::NodeId>(g.num_nodes());
  // Singletons plus overlapping multi-op windows, all distinct sequences.
  std::vector<std::vector<graph::NodeId>> stages;
  for (graph::NodeId v = 0; v < n; ++v) stages.push_back({v});
  for (graph::NodeId v = 0; v + 2 < n; ++v) stages.push_back({v, v + 1, v + 2});
  for (graph::NodeId v = 0; v + 1 < n; ++v) stages.push_back({v + 1, v});

  const SlowTableModel slow;
  const cost::StageTimeCache cached(slow);
  constexpr int kThreads = 4, kRounds = 20;
  std::atomic<int> wrong{0}, ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together so the first round's fills race.
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < stages.size(); ++i) {
          // Odd threads walk the set backwards, so they meet the even ones.
          const auto& stage = stages[t % 2 == 0 ? i : stages.size() - 1 - i];
          const auto span = std::span<const graph::NodeId>(stage);
          if (cached.stage_time(g, span) != kCost.stage_time(g, span)) ++wrong;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cached.hits() + cached.misses(), kThreads * kRounds * stages.size());
  EXPECT_EQ(cached.misses(), stages.size());
}

// core::CountingCostModel shared by several callers: each distinct op set
// is counted once (in any op order) and its time summed once.
TEST(SchedParallel, CountingModelExactUnderConcurrentCallers) {
  const graph::Graph g = make_dag(77);
  const auto n = static_cast<graph::NodeId>(g.num_nodes());
  std::vector<std::vector<graph::NodeId>> sets;
  double total_ms = 0.0;
  for (graph::NodeId v = 0; v + 1 < n; ++v) {
    sets.push_back({v, v + 1});
    total_ms += kCost.stage_time(g, sets.back());
  }
  const core::CountingCostModel counter(kCost);
  constexpr int kThreads = 4, kRounds = 25;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& set : sets) {
          // Odd threads ask for each set in reverse op order: same stage.
          const std::vector<graph::NodeId> ops =
              t % 2 == 0 ? set : std::vector<graph::NodeId>{set[1], set[0]};
          counter.stage_time(g, ops);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.distinct_stages(), sets.size());
  EXPECT_NEAR(counter.measured_ms(), total_ms, 1e-9 * total_ms);
}

// parallel_for behind PlanPool::prewarm and run_trace's engine batch, at
// several lane counts: every index runs exactly once, also when some throw;
// the lowest throwing index's exception surfaces; and a parallel_for inside
// another completes.
TEST(SchedParallel, PoolPrimitivesAreDeterministic) {
  for (int threads : {1, 2, 8}) {
    util::ScopedThreads scoped(threads);
    const util::ThreadPool& pool = util::global_pool();
    EXPECT_EQ(pool.num_threads(), threads);
    for (std::size_t n : {0u, 1u, 5u, 8u, 1000u}) {
      std::vector<std::atomic<int>> runs(n);
      pool.parallel_for(n, [&](std::size_t i) { ++runs[i]; });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " n=" << n << " i=" << i;
    }

    // Every third index from 7 on throws: index 7's error surfaces, and
    // every index still ran once.
    std::vector<std::atomic<int>> runs(64);
    std::string caught;
    try {
      pool.parallel_for(runs.size(), [&](std::size_t i) {
        ++runs[i];
        if (i >= 7 && i % 3 == 1) throw std::runtime_error("index " + std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "index 7") << "threads=" << threads;
    for (std::size_t i = 0; i < runs.size(); ++i)
      EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " i=" << i;

    // Nested: each outer index runs an inner parallel_for of its own.
    std::vector<std::atomic<int>> cells(4 * 16);
    pool.parallel_for(4, [&](std::size_t outer) {
      pool.parallel_for(16, [&](std::size_t inner) { ++cells[outer * 16 + inner]; });
    });
    for (std::size_t i = 0; i < cells.size(); ++i)
      EXPECT_EQ(cells[i].load(), 1) << "threads=" << threads << " nested cell " << i;
  }
}

}  // namespace
}  // namespace hios::sched
